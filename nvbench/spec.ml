(* What nvbench measures: its workloads, its metrics with units,
   directions and regression bounds, and the committed expected outputs.
   BENCHMARK.json at the repository root declares the same names; the
   test suite holds the two in step. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: the share of the parent's median by
          which the metric may worsen before it counts as a regression *)
}

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("Spec.better_of_string: " ^ s)

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }

(* Measured with tracing off, one spawned child at a time. *)
let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.25;
    e2e "cpu_s" "s" Lower 0.25;
    e2e "mref_per_s" "Mref/s" Higher 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.10;
    e2e "setup_s" "s" Lower 0.25;
  ]

(* the technologies [nvscav run] compares, as metric-name components *)
let techs =
  List.map
    (fun (t : Nvsc_nvram.Technology.t) -> String.lowercase_ascii t.name)
    Nvsc_nvram.Technology.paper_set

let layer name unit_ better = { name; unit_; better; bound = None }

(* Measured by the traced pass, in process, around calls into each
   layer's public functions.  Every metric is reported on every
   workload; README.md says on which workload each should move. *)
let per_layer =
  [
    layer "appkit.ns_per_ref" "ns/ref" Lower;
    layer "appkit.time_s" "s" Lower;
    layer "appkit.refs" "count" Lower;
    layer "appkit.main_refs" "count" Lower;
    layer "cachesim.ns_per_ref" "ns/ref" Lower;
    layer "cachesim.time_s" "s" Lower;
    layer "cachesim.l1_miss_rate" "ratio" Lower;
    layer "cachesim.l2_miss_rate" "ratio" Lower;
    layer "cachesim.txns" "count" Lower;
  ]
  @ List.map
      (fun t -> layer (Printf.sprintf "dramsim.%s.ns_per_txn" t) "ns/txn" Lower)
      techs
  @ List.map
      (fun t -> layer (Printf.sprintf "dramsim.%s.row_hit_rate" t) "ratio" Higher)
      techs
  @ [
      layer "dramsim.compare_s" "s" Lower;
      layer "dramsim.compare_s.jobs2" "s" Lower;
      layer "dramsim.compare_s.team2" "s" Lower;
      layer "core.scavenger_s" "s" Lower;
      layer "core.scavenger_s.shards2" "s" Lower;
      layer "core.replay_s" "s" Lower;
      layer "core.analysis_ms" "ms" Lower;
      layer "placement.us" "us" Lower;
      layer "memtrace.nvt.ns_per_ref" "ns/ref" Lower;
      layer "memtrace.nvt.time_s" "s" Lower;
      layer "memtrace.nvt.refs_per_slice" "ref/slice" Higher;
      layer "memtrace.nvt.record_ns_per_ref" "ns/ref" Lower;
      layer "cpusim.ns_per_access" "ns/access" Lower;
      layer "cpusim.time_s" "s" Lower;
      layer "sweep.cell.objects_s" "s" Lower;
      layer "sweep.cell.power_s" "s" Lower;
      layer "sweep.cell.perf_s" "s" Lower;
      layer "sweep.busy_s" "s" Lower;
      layer "sweep.wall_s.jobs2" "s" Lower;
      layer "sweep.efficiency" "ratio" Higher;
      layer "serve.warm_roundtrip_us" "us" Lower;
      layer "pipeline.layers_sum_s" "s" Lower;
      layer "pipeline.wall_s" "s" Lower;
      layer "pipeline.unattributed_s" "s" Lower;
    ]

(* Per-layer metrics that set a traced repetition's layer sum against the
   workload's median wall time, known only once its timed runs are done. *)
let reconciled = [ "pipeline.wall_s"; "pipeline.unattributed_s" ]

let find_metric name =
  List.find (fun m -> m.name = name) (end_to_end @ per_layer)

(* --- workloads ----------------------------------------------------------- *)

type program = Nvscav | Experiments

type workload = {
  name : string;
  program : program;
  apps : (string * float * int) list;
      (** the applications whose references the workload processes, with
          scale and main-loop iterations; their emitted references are the
          workload's reference count *)
  replay : bool;
      (** references come from an NVT trace recorded at set-up, not from
          running the application *)
}

let full app = (app, 1.0, 10)

(* The paper's applications at Experiment.quick_config's scale and
   iterations. *)
let quick_apps = List.map (fun a -> (a, 0.25, 4)) Nvsc_apps.Apps.names

let workloads =
  [
    { name = "run-cam"; program = Nvscav; apps = [ full "cam" ]; replay = false };
    {
      name = "run-nek5000";
      program = Nvscav;
      apps = [ full "nek5000" ];
      replay = false;
    };
    { name = "replay-s3d"; program = Nvscav; apps = [ full "s3d" ]; replay = true };
    {
      name = "experiments-quick";
      program = Experiments;
      apps = quick_apps;
      replay = false;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* The seed picks the NVRAM technology of the hybrid placement that
   [nvscav run]/[replay] plan: each choice does the same simulation work
   but prints a different plan, so every seed checks its own output. *)
let variants w =
  match w.program with
  | Nvscav -> [ "pcram"; "sttram"; "mram" ]
  | Experiments -> [ "-" ]

let variant w ~seed =
  let vs = variants w in
  List.nth vs (abs seed mod List.length vs)

let first_app w =
  let app, _, _ = List.hd w.apps in
  app

(* The NVT trace the replay workload records at set-up, relative to the
   repository root. *)
let nvt_path w = Printf.sprintf ".nvbench/%s.nvt" (first_app w)

let setup_args w =
  if w.replay then Some [ "record"; first_app w; "-o"; nvt_path w ] else None

let args w ~variant =
  match (w.program, w.replay) with
  | Experiments, _ -> [ "quick"; "no-ext"; "-j"; "2" ]
  | Nvscav, true -> [ "replay"; nvt_path w; "--tech"; variant ]
  | Nvscav, false -> [ "run"; first_app w; "--tech"; variant ]

(* --- expected outputs ---------------------------------------------------- *)

type expected = {
  refs : int;  (** references the workload's applications emit *)
  stdout : (string * string) list;  (** variant -> MD5 of the child's stdout *)
  setup : string option;  (** MD5 of the set-up child's stdout *)
}

(* One file per workload: [expected/<workload>.txt], lines of
   [refs N], [stdout VARIANT MD5] and [setup MD5]; '#' starts a
   comment. *)
let load_expected ~dir w =
  let path = Filename.concat dir (w.name ^ ".txt") in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
  in
  List.fold_left
    (fun e line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> e
      | s :: _ when s.[0] = '#' -> e
      | [ "refs"; n ] -> { e with refs = int_of_string n }
      | [ "stdout"; v; md5 ] -> { e with stdout = e.stdout @ [ (v, md5) ] }
      | [ "setup"; md5 ] -> { e with setup = Some md5 }
      | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line))
    { refs = 0; stdout = []; setup = None }
    lines
