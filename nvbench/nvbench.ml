(* nvbench: NV-Scavenger's performance ledger (README.md).

   End-to-end runs spawn the real [nvscav] and [experiments] binaries one
   child at a time, closed loop, and check every child's stdout against a
   committed digest; a traced pass (traced.ml, also run as a child)
   drives the same traffic in process through each layer.

     nvbench.exe [--seed S] [--samples N] [--out FILE]
       every workload: N rounds in a seeded shuffle, with the traced
       repetitions among them; writes the result document (schema
       nvbench/1) and a Chrome trace of the harness spans.
     nvbench.exe --workload W --seed S --seconds T --trace 0|1
       one workload for T seconds; the last stdout line is a JSON object
       with the end-to-end metrics (--trace 0) or the per-layer ones
       (--trace 1).

   Run from the repository root: inputs are read from nvbench/expected/
   and scratch files go to .nvbench/. *)

open Nvbench_lib
module J = Nvsc_util.Json

let scratch = ".nvbench"
let expected_dir = Filename.concat "nvbench" "expected"

(* set-up repetitions per run; [setup_s] is their median *)
let setup_reps = 5

(* wall-time samples a traced run takes to reconcile its layer sum *)
let trace_wall_samples = 3

(* traced repetitions of a full run, and the most a single run makes *)
let traced_reps = 3

let binary (p : Spec.program) =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".."
       (Filename.concat "bin"
          (match p with Nvscav -> "nvscav.exe" | Experiments -> "experiments.exe")))

(* --- per-workload state --------------------------------------------------- *)

type state = {
  w : Spec.workload;
  variant : string;
  expected : Spec.expected;
  mutable attempted : int;
  mutable failed : int;  (** attempts with at least one failure *)
  mutable failures : string list;
  mutable setup : float list;  (** successful set-up durations *)
  mutable timeout_s : float;
  mutable samples : Child.run list;  (** successful timed children *)
  mutable reps : (string * float) list list;  (** traced repetitions *)
}

let fail st msg = st.failures <- (st.w.name ^ ": " ^ msg) :: st.failures

let make_state ~seed (w : Spec.workload) =
  {
    w;
    variant = Spec.variant w ~seed;
    expected = Spec.load_expected ~dir:expected_dir w;
    attempted = 0;
    failed = 0;
    failures = [];
    setup = [];
    timeout_s = 120.;
    samples = [];
    reps = [];
  }

let spawn st ~args ~expected_md5 =
  st.attempted <- st.attempted + 1;
  let r =
    Child.run ~exe:(binary st.w.program) ~args
      ~stdout_file:(Filename.concat scratch (st.w.name ^ ".out"))
      ~timeout_s:st.timeout_s ~expected_md5
  in
  match r.failure with
  | None -> Some r
  | Some f ->
    st.failed <- st.failed + 1;
    fail st (Printf.sprintf "%s: %s" (String.concat " " args) f);
    None

let timed_args st = Spec.args st.w ~variant:st.variant
let timed_md5 st = List.assoc st.variant st.expected.stdout

(* One set-up: the replay workload records its trace; the others have no
   input to prepare, so their set-up is a run of the timed child. *)
let set_up st =
  match Spec.setup_args st.w with
  | Some args -> spawn st ~args ~expected_md5:(Option.get st.expected.setup)
  | None -> spawn st ~args:(timed_args st) ~expected_md5:(timed_md5 st)

let timed_child st = spawn st ~args:(timed_args st) ~expected_md5:(timed_md5 st)

(* Uncounted: the replay workload's first recording, then one timed
   child, which warms the page cache and whose wall time fixes the
   timeout of every later child at ten times it. *)
let warm_up st =
  if st.w.replay then ignore (set_up st);
  Option.iter
    (fun (r : Child.run) -> st.timeout_s <- 10. *. r.wall_s)
    (timed_child st)

let sample st = Option.iter (fun r -> st.samples <- r :: st.samples) (timed_child st)

(* A round: a timed child, preceded by a counted set-up when [setup]. *)
let round st ~setup =
  if setup then
    Option.iter (fun (r : Child.run) -> st.setup <- r.wall_s :: st.setup) (set_up st);
  sample st

(* Whether round [i] of [total] (from 1) is one of [count] spread evenly
   over them: spreading the set-ups and traced repetitions keeps one slow
   spell of the host from falling on all of them. *)
let evenly ~count ~total i =
  List.exists (fun k -> i = total * (k + 1) / count) (List.init count Fun.id)

let median_wall st =
  match st.samples with
  | [] -> 0.
  | rs -> Sample_stats.median (List.map (fun (r : Child.run) -> r.wall_s) rs)

let traced_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "traced.exe"

(* One repetition of the traced pass, run as a child (traced.ml), with its
   spans adopted under this one. *)
let traced_rep st =
  st.attempted <- st.attempted + 1;
  let result, _ =
    Spans.timed st.w.name (fun () ->
        let ic =
          Unix.open_process_args_in traced_exe
            [| traced_exe; st.w.name; st.variant |]
        in
        let out = In_channel.input_all ic in
        let status = Unix.close_process_in ic in
        match (status, J.of_string out) with
        | Unix.WEXITED 0, j ->
          Spans.adopt (J.member "spans" j);
          Ok
            ( List.map (fun (k, v) -> (k, J.to_float v)) (J.to_obj (J.member "values" j)),
              List.map J.to_str (J.to_list (J.member "problems" j)) )
        | _ -> Error "the traced pass failed"
        | exception J.Parse_error msg -> Error ("the traced pass printed " ^ msg))
  in
  let problems =
    match result with
    | Error msg -> [ msg ]
    | Ok (values, problems) ->
      st.reps <- values :: st.reps;
      let refs = int_of_float (List.assoc "appkit.refs" values) in
      if refs = st.expected.refs then problems
      else
        Printf.sprintf "traced pass counted %d references, expected %d" refs
          st.expected.refs
        :: problems
  in
  if problems <> [] then st.failed <- st.failed + 1;
  List.iter (fail st) problems

(* --- metrics --------------------------------------------------------------- *)

let summarize = function [] -> Sample_stats.summarize [ 0. ] | xs -> Sample_stats.summarize xs

let end_to_end st =
  let over f = summarize (List.map f st.samples) in
  let mref (r : Child.run) = float_of_int st.expected.refs /. r.wall_s /. 1e6 in
  [
    ("wall_s", over (fun r -> r.wall_s));
    ("cpu_s", over (fun r -> r.cpu_s));
    ("mref_per_s", over mref);
    ("peak_rss_mb", over (fun r -> r.rss_mb));
    ("setup_s", summarize st.setup);
  ]

let per_layer st =
  let wall = median_wall st in
  let value name rep =
    match name with
    | "pipeline.wall_s" -> wall
    | "pipeline.unattributed_s" -> wall -. List.assoc "pipeline.layers_sum_s" rep
    | _ -> List.assoc name rep
  in
  List.map
    (fun (m : Spec.metric) -> (m.name, summarize (List.map (value m.name) st.reps)))
    Spec.per_layer

let pp_table st metrics =
  Printf.printf "== %s (%s): %d runs, %d failed ==\n" st.w.name st.variant
    st.attempted st.failed;
  List.iter
    (fun (name, (s : Sample_stats.t)) ->
      Printf.printf "%-34s %14.6g %-9s q1 %-11.5g q3 %-11.5g min %-11.5g max %-11.5g n %d\n"
        name s.median (Spec.find_metric name).unit_ s.q1 s.q3 s.min s.max s.n)
    metrics;
  List.iter (Printf.printf "FAILED %s\n") (List.rev st.failures);
  flush stdout

let ledger st =
  {
    Ledger.name = st.w.name;
    variant = st.variant;
    attempted = st.attempted;
    failed = st.failed;
    failures = List.rev st.failures;
    rows =
      List.map
        (fun (name, stats) -> { Ledger.metric = Spec.find_metric name; stats })
        (end_to_end st @ per_layer st);
  }

(* --- modes ------------------------------------------------------------------ *)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let full ~seed ~samples ~out =
  let states = List.map (make_state ~seed) Spec.workloads in
  List.iter warm_up states;
  let rng = Random.State.make [| seed |] in
  for i = 1 to samples do
    let setup = evenly ~count:setup_reps ~total:samples i in
    List.iter (fun st -> round st ~setup) (shuffle rng states);
    if evenly ~count:traced_reps ~total:samples i then
      List.iter traced_rep (shuffle rng states)
  done;
  List.iter (fun st -> pp_table st (end_to_end st @ per_layer st)) states;
  Out_channel.with_open_text out (fun oc ->
      output_string oc
        (J.to_string (Ledger.to_json ~seed ~samples ~reps:traced_reps (List.map ledger states)));
      output_char oc '\n');
  let trace = Filename.remove_extension out ^ ".trace.json" in
  Spans.write_chrome_trace trace;
  Printf.printf "wrote %s and %s\n" out trace;
  if List.exists (fun st -> st.failures <> []) states then exit 1

let single ~name ~seed ~seconds ~trace =
  let w =
    match Spec.find_workload name with
    | Some w -> w
    | None ->
      Printf.eprintf "nvbench: unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads));
      exit 2
  in
  let st = make_state ~seed w in
  warm_up st;
  let deadline = Child.now_ns () + int_of_float (seconds *. 1e9) in
  let metrics =
    if not trace then begin
      let i = ref 0 in
      while !i < setup_reps || Child.now_ns () < deadline do
        incr i;
        round st ~setup:(!i <= setup_reps)
      done;
      end_to_end st
    end
    else begin
      for _ = 1 to trace_wall_samples do
        sample st
      done;
      (* repetitions while the next is expected to end by the deadline *)
      let rec loop reps last_ns =
        if reps = 0 || (reps < traced_reps && Child.now_ns () + last_ns <= deadline)
        then begin
          let t0 = Child.now_ns () in
          traced_rep st;
          loop (reps + 1) (Child.now_ns () - t0)
        end
      in
      loop 0 0;
      Spans.write_chrome_trace
        (Filename.concat scratch (Printf.sprintf "%s-seed%d.trace.json" name seed));
      per_layer st
    end
  in
  pp_table st metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (st.failures = []));
            ("attempted", J.Int st.attempted);
            ("failed", J.Int st.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, (s : Sample_stats.t)) ->
                     ( name,
                       J.Obj
                         [
                           ("value", J.float s.median);
                           ("unit", J.Str (Spec.find_metric name).unit_);
                         ] ))
                   metrics) );
          ]))

let usage () =
  prerr_endline
    "usage: nvbench.exe [--seed S] [--samples N] [--out FILE]\n\
    \       nvbench.exe --workload W --seed S --seconds T --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.
  and trace = ref false and samples = ref 20
  and out = ref (Filename.concat scratch "result.json") in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_int (int v); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--samples" :: v :: rest -> samples := max 1 (int v); parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        Printf.eprintf
          "nvbench: %s not built (dune build bin/nvscav.exe bin/experiments.exe \
           nvbench/traced.exe)\n"
          exe;
        exit 2
      end)
    [ binary Spec.Nvscav; binary Experiments; traced_exe ];
  if not (Sys.file_exists expected_dir) then begin
    Printf.eprintf "nvbench: %s not found; run from the repository root\n"
      expected_dir;
    exit 2
  end;
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  match !workload with
  | Some name -> single ~name ~seed:!seed ~seconds:!seconds ~trace:!trace
  | None -> full ~seed:!seed ~samples:!samples ~out:!out
