module Cell = Nvsc_sweep.Cell
module Matrix = Nvsc_sweep.Matrix
module Technology = Nvsc_nvram.Technology

type t = {
  specs : Cell.spec array;
  trace : string option;
  sections : (Format.formatter -> Cell.payload -> unit) array;
}

let chunk plan i payload =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  plan.sections.(i) fmt payload;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* --- validation --------------------------------------------------------- *)

let bad ?field message =
  Error { Protocol.err_id = None; code = "bad-request"; field; message }

let ( let* ) = Result.bind

let check_app app =
  match Nvsc_apps.Apps.find app with
  | Some _ -> Ok ()
  | None ->
    bad ~field:"app"
      (Nvsc_util.Cli.unknown ~what:"application" ~known:Nvsc_apps.Apps.names
         app)

let check_tech tech =
  match Technology.nvram_of_string tech with
  | Ok t -> Ok t
  | Error msg -> bad ~field:"tech" msg

let check_config ~scale ~iterations =
  if not (Float.is_finite scale && scale > 0.) then
    bad ~field:"scale" "scale must be a positive number"
  else if scale > Nvsc_util.Cli.max_scale then
    bad ~field:"scale"
      (Printf.sprintf "scale must be at most %g" Nvsc_util.Cli.max_scale)
  else if iterations < 1 then
    bad ~field:"iterations" "iterations must be at least 1"
  else Ok ()

(* --- payload projections ------------------------------------------------ *)

(* A section printer receiving the wrong payload constructor would be a
   scheduling bug, not a client error, hence the assertions. *)

let objects_of = function
  | Cell.Objects_result o -> o
  | _ -> invalid_arg "Plan: objects payload expected"

let power_of = function
  | Cell.Power_result p -> p
  | _ -> invalid_arg "Plan: power payload expected"

let perf_of = function
  | Cell.Perf_result rows -> rows
  | _ -> invalid_arg "Plan: perf payload expected"

let place_of = function
  | Cell.Place_result p -> p
  | _ -> invalid_arg "Plan: place payload expected"

(* Each request's report, composed from the payload section printers.
   The local subcommands run these same plans, so the streamed chunks
   concatenate to their stdout by construction. *)

let analyze_section fmt p =
  let o = objects_of p in
  Cell.pp_objects_summary fmt o;
  Cell.pp_objects_usage fmt o

let power_section fmt p =
  let pw = power_of p in
  Cell.pp_power_trace_line fmt pw;
  Cell.pp_power_stats fmt pw;
  Cell.pp_power_normalized fmt pw

let perf_section ~posted fmt p = Cell.pp_perf_points ~posted fmt (perf_of p)

let place_section fmt p =
  let pl = place_of p in
  Cell.pp_place_items fmt pl;
  Cell.pp_place_assessment fmt pl

(* [run]: objects summary, trace line and normalized power, assessment *)
let run_cells =
  [
    (Cell.Objects, fun fmt p -> Cell.pp_objects_summary fmt (objects_of p));
    ( Cell.Power,
      fun fmt p ->
        let pw = power_of p in
        Cell.pp_power_trace_line fmt pw;
        Cell.pp_power_normalized fmt pw );
    (Cell.Place, fun fmt p -> Cell.pp_place_assessment fmt (place_of p));
  ]

(* --- plans -------------------------------------------------------------- *)

(* One spec per (kind, section); only place cells carry the technology. *)
let plan ?tech ?digest ?trace ~app ~scale ~iterations cells =
  let spec kind =
    {
      Cell.app;
      kind;
      scale;
      iterations;
      tech =
        (match (kind, tech) with
        | Cell.Place, Some (t : Technology.t) -> Some t.tech
        | _ -> None);
      trace_digest = digest;
    }
  in
  {
    specs = Array.of_list (List.map (fun (kind, _) -> spec kind) cells);
    trace;
    sections = Array.of_list (List.map snd cells);
  }

let live ?tech ~app ~scale ~iterations cells =
  let* () = check_app app in
  let* tech =
    match tech with
    | None -> Ok None
    | Some name -> Result.map Option.some (check_tech name)
  in
  let* () = check_config ~scale ~iterations in
  Ok (plan ?tech ~app ~scale ~iterations cells)

let analyze ~app ~scale ~iterations =
  live ~app ~scale ~iterations [ (Cell.Objects, analyze_section) ]

let run ~app ~scale ~iterations ~tech =
  live ~tech ~app ~scale ~iterations run_cells

let power ~app ~scale ~iterations =
  live ~app ~scale ~iterations [ (Cell.Power, power_section) ]

(* a perf cell replays one main-loop iteration *)
let perf ~app ~scale ~asymmetric =
  live ~app ~scale ~iterations:1
    [ (Cell.Perf, perf_section ~posted:asymmetric) ]

let place ~app ~scale ~iterations ~tech =
  live ~tech ~app ~scale ~iterations [ (Cell.Place, place_section) ]

let trace_info path =
  try Ok (Nvsc_core.Trace_run.info path) with
  | Nvsc_memtrace.Trace_codec.Error msg | Sys_error msg ->
    bad ~field:"path" msg

(* A place cell sizes both memories from the objects' footprint, so a
   trace without objects has nothing to place. *)
let check_placeable path ~objects kinds =
  if objects > 0 || not (List.mem Cell.Place kinds) then Ok ()
  else
    bad ~field:"path"
      (path ^ ": the trace records no objects, so there is nothing to place")

let replay_kinds =
  [
    ("run", run_cells);
    ("objects", [ (Cell.Objects, analyze_section) ]);
    ("power", [ (Cell.Power, power_section) ]);
    ("perf", [ (Cell.Perf, perf_section ~posted:false) ]);
    ("place", [ (Cell.Place, place_section) ]);
  ]

let replay ~path ~kind ~tech =
  let* tech = check_tech tech in
  let* meta, digest, objects = trace_info path in
  let* cells =
    match List.assoc_opt kind replay_kinds with
    | Some cells -> Ok cells
    | None ->
      bad ~field:"kind"
        (Nvsc_util.Cli.unknown ~what:"kind"
           ~known:(List.map fst replay_kinds) kind)
  in
  let* () = check_placeable path ~objects (List.map fst cells) in
  Ok
    (plan ~tech ~digest ~trace:path ~app:meta.Nvsc_memtrace.Trace_codec.app
       ~scale:meta.scale ~iterations:meta.iterations cells)

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* y = f x in
      let* ys = acc in
      Ok (y :: ys))
    l (Ok [])

let sweep ~apps ~kinds ~techs ~scale ~iterations ~overrides ~from_trace =
  (* Mirrors the local [nvscav sweep] matrix construction, including the
     trace pinning: a trace-fed sweep is forced onto the trace's
     application, scale and iteration count, and every cell's cache key
     carries the trace's content digest. *)
  let* forced =
    match from_trace with
    | None -> Ok (apps, scale, iterations, None)
    | Some path ->
      let* meta, digest, objects = trace_info path in
      Ok
        ( Some [ meta.Nvsc_memtrace.Trace_codec.app ],
          meta.scale,
          meta.iterations,
          Some
            ( path,
              objects,
              Cell.pin_trace ~digest ~iterations:meta.iterations ) )
  in
  let apps, scale, iterations, pin = forced in
  let* () = check_config ~scale ~iterations in
  let* kinds =
    match kinds with
    | None -> Ok None
    | Some names ->
      Result.map Option.some
        (map_result
           (fun s ->
             match Cell.kind_of_string s with
             | Some k when List.mem k Cell.all_kinds -> Ok k
             | _ ->
               bad ~field:"kinds"
                 (Nvsc_util.Cli.unknown ~what:"kind"
                    ~known:(List.map Cell.kind_to_string Cell.all_kinds)
                    s))
           names)
  in
  let* overrides =
    map_result
      (fun s ->
        match Matrix.parse_override s with
        | Ok o -> Ok o
        | Error msg -> bad ~field:"overrides" msg)
      overrides
  in
  let* matrix =
    match Matrix.make ?apps ?kinds ?techs ~scale ~iterations ~overrides () with
    | Ok m -> Ok m
    | Error msg -> bad msg
  in
  let cells = Matrix.cells matrix in
  let* specs =
    match pin with
    | None -> Ok (Array.of_list cells)
    | Some (path, objects, pin) ->
      let* () =
        check_placeable path ~objects
          (List.map (fun (s : Cell.spec) -> s.kind) cells)
      in
      Ok (Array.of_list (List.map pin cells))
  in
  Ok
    {
      specs;
      trace = from_trace;
      sections =
        Array.map (fun s fmt payload -> Cell.render fmt s payload) specs;
    }

let of_request = function
  | Protocol.Analyze { app; scale; iterations } -> analyze ~app ~scale ~iterations
  | Protocol.Run { app; scale; iterations; tech } ->
    run ~app ~scale ~iterations ~tech
  | Protocol.Replay { path; kind; tech } -> replay ~path ~kind ~tech
  | Protocol.Sweep { apps; kinds; techs; scale; iterations; overrides;
                     from_trace } ->
    sweep ~apps ~kinds ~techs ~scale ~iterations ~overrides ~from_trace
  | Protocol.Ping | Protocol.Stats _ | Protocol.Shutdown ->
    invalid_arg "Plan.of_request: not an analysis request"
