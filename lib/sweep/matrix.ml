module Technology = Nvsc_nvram.Technology

type override = {
  o_app : string option;
  o_kind : Cell.kind option;
  o_scale : float option;
  o_iterations : int option;
}

type t = {
  apps : string list;
  kinds : Cell.kind list;
  techs : Technology.tech list;
  scale : float;
  iterations : int;
  overrides : override list;
}

let default =
  {
    apps = Nvsc_apps.Apps.names;
    kinds = Cell.all_kinds;
    techs = [ Technology.STTRAM ];
    scale = 1.0;
    iterations = 10;
    overrides = [];
  }

let ( let* ) = Result.bind

let validate_apps apps =
  let rec loop = function
    | [] -> Ok apps
    | a :: rest -> (
      match Nvsc_apps.Apps.find a with
      | Some _ -> loop rest
      | None ->
        Error
          (Printf.sprintf "unknown application %S (known: %s)" a
             (String.concat ", " Nvsc_apps.Apps.extended_names)))
  in
  loop apps

let validate_techs names =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match Technology.of_string n with
      | Some t -> loop (t.Technology.tech :: acc) rest
      | None -> Error (Printf.sprintf "unknown technology %S" n))
  in
  loop [] names

let make ?(apps = default.apps) ?(kinds = default.kinds) ?techs
    ?(scale = default.scale) ?(iterations = default.iterations)
    ?(overrides = []) () =
  let* apps = validate_apps apps in
  let* techs =
    match techs with
    | None -> Ok default.techs
    | Some names -> validate_techs names
  in
  if apps = [] then Error "empty application list"
  else if kinds = [] then Error "empty kind list"
  else if scale <= 0. then Error "scale must be positive"
  else if iterations <= 0 then Error "iterations must be positive"
  else Ok { apps; kinds; techs; scale; iterations; overrides }

let parse_override s =
  let parts = String.split_on_char ',' s in
  let rec loop o = function
    | [] -> Ok o
    | part :: rest -> (
      match String.index_opt part '=' with
      | None -> Error (Printf.sprintf "override %S: expected key=value" part)
      | Some i -> (
        let key = String.sub part 0 i in
        let value = String.sub part (i + 1) (String.length part - i - 1) in
        match key with
        | "app" -> (
          match Nvsc_apps.Apps.find value with
          | Some _ -> loop { o with o_app = Some value } rest
          | None ->
            Error (Printf.sprintf "override: unknown application %S" value))
        | "kind" -> (
          match Cell.kind_of_string value with
          | Some k when List.mem k Cell.all_kinds ->
            loop { o with o_kind = Some k } rest
          | _ -> Error (Printf.sprintf "override: unknown kind %S" value))
        | "scale" -> (
          match float_of_string_opt value with
          | Some f when f > 0. -> loop { o with o_scale = Some f } rest
          | _ -> Error (Printf.sprintf "override: bad scale %S" value))
        | "iterations" -> (
          match int_of_string_opt value with
          | Some n when n > 0 -> loop { o with o_iterations = Some n } rest
          | _ -> Error (Printf.sprintf "override: bad iterations %S" value))
        | k -> Error (Printf.sprintf "override: unknown key %S" k)))
  in
  loop { o_app = None; o_kind = None; o_scale = None; o_iterations = None }
    parts

let apply_overrides t (spec : Cell.spec) =
  List.fold_left
    (fun (spec : Cell.spec) o ->
      let matches =
        (match o.o_app with None -> true | Some a -> a = spec.app)
        && match o.o_kind with None -> true | Some k -> k = spec.kind
      in
      if not matches then spec
      else
        {
          spec with
          scale = Option.value o.o_scale ~default:spec.scale;
          iterations = Option.value o.o_iterations ~default:spec.iterations;
        })
    spec t.overrides

let cells t =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun kind ->
          let base =
            {
              Cell.app;
              kind;
              scale = t.scale;
              iterations = t.iterations;
              tech = None;
              trace_digest = None;
            }
          in
          match kind with
          | Cell.Place ->
            List.map
              (fun tech -> apply_overrides t { base with tech = Some tech })
              t.techs
          | Cell.Perf ->
            (* a live perf cell replays one main-loop iteration, whatever
               the matrix or an override says *)
            [ { (apply_overrides t base) with iterations = 1 } ]
          | Cell.Objects | Cell.Power | Cell.Study ->
            [ apply_overrides t base ])
        t.kinds)
    t.apps
