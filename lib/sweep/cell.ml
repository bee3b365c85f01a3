module Json = Nvsc_util.Json
module Serial = Nvsc_core.Serial
module Scavenger = Nvsc_core.Scavenger
module Stack_analysis = Nvsc_core.Stack_analysis
module Object_analysis = Nvsc_core.Object_analysis
module Usage_variance = Nvsc_core.Usage_variance
module Technology = Nvsc_nvram.Technology
module Trace_log = Nvsc_memtrace.Trace_log
module Table = Nvsc_util.Table
module Units = Nvsc_util.Units

open Json

type kind = Objects | Power | Perf | Place | Study

let kind_to_string = function
  | Objects -> "objects"
  | Power -> "power"
  | Perf -> "perf"
  | Place -> "place"
  | Study -> "study"

let kind_of_string = function
  | "objects" -> Some Objects
  | "power" -> Some Power
  | "perf" -> Some Perf
  | "place" -> Some Place
  | "study" -> Some Study
  | _ -> None

let all_kinds = [ Objects; Power; Perf; Place ]

type spec = {
  app : string;
  kind : kind;
  scale : float;
  iterations : int;
  tech : Technology.tech option;
  trace_digest : string option;
}

let tech_name t = (Technology.get t).Technology.name

let spec_to_json s =
  Obj
    [
      ("app", Str s.app);
      ("kind", Str (kind_to_string s.kind));
      ("scale", float s.scale);
      ("iterations", Int s.iterations);
      ( "tech",
        match s.tech with None -> Null | Some t -> Str (tech_name t) );
      ( "trace",
        match s.trace_digest with None -> Null | Some d -> Str d );
    ]

let spec_of_json j =
  let kind =
    let s = to_str (member "kind" j) in
    match kind_of_string s with
    | Some k -> k
    | None -> raise (Parse_error (Printf.sprintf "Cell: unknown kind %S" s))
  in
  let tech =
    match member "tech" j with
    | Null -> None
    | t -> (
      let s = to_str t in
      match Technology.of_string s with
      | Some t -> Some t.Technology.tech
      | None ->
        raise (Parse_error (Printf.sprintf "Cell: unknown technology %S" s)))
  in
  {
    app = to_str (member "app" j);
    kind;
    scale = to_float (member "scale" j);
    iterations = to_int (member "iterations" j);
    tech;
    trace_digest =
      (match member_opt "trace" j with
      | None | Some Null -> None
      | Some d -> Some (to_str d));
  }

let pin_trace ~digest ~iterations spec =
  {
    spec with
    trace_digest = Some digest;
    iterations = (if spec.kind = Perf then iterations else spec.iterations);
  }

let code_version = "nvsc-sweep-v4"

let digest spec =
  Digest.to_hex
    (Digest.string (code_version ^ "|" ^ Json.to_string (spec_to_json spec)))

(* --- payloads ----------------------------------------------------------- *)

type app_info = {
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  footprint_bytes : int;
  total_main_refs : int;
}

type objects_payload = {
  info : app_info;
  summary : Stack_analysis.summary;
  distribution : Stack_analysis.distribution;
  report : Object_analysis.report;
  cdf : Usage_variance.cdf_point list;
  variance : Usage_variance.variance;
  untouched_fraction : float;
}

type power_row = {
  tech_name : string;
  avg_power_w : float;
  elapsed_ns : float;
  row_hit_rate : float;
  bandwidth_gbs : float;
  normalized : float;
}

type power_payload = {
  p_info : app_info;
  trace_length : int;
  trace_reads : int;
  trace_writes : int;
  l1_miss_rate : float;
  l2_miss_rate : float;
  power_rows : power_row list;
  p_pipeline : Nvsc_appkit.Ctx.pipeline_stats;
}

type perf_row = {
  perf_tech_name : string;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;
  posted_runtime_ns : float;
  posted_normalized_runtime : float;
}

type place_payload = {
  place_tech_name : string;
  place_footprint_bytes : int;
  nvram_items : Nvsc_placement.Item.t list;
  assessment : Nvsc_placement.Hybrid_memory.assessment;
}

type payload =
  | Objects_result of objects_payload
  | Power_result of power_payload
  | Perf_result of perf_row list
  | Place_result of place_payload
  | Study_result of (string * string) list

(* --- codecs ------------------------------------------------------------- *)

let info_to_json i =
  Obj
    [
      ("description", Str i.description);
      ("input_description", Str i.input_description);
      ("paper_footprint_mb", float i.paper_footprint_mb);
      ("footprint_bytes", Int i.footprint_bytes);
      ("total_main_refs", Int i.total_main_refs);
    ]

let info_of_json j =
  {
    description = to_str (member "description" j);
    input_description = to_str (member "input_description" j);
    paper_footprint_mb = to_float (member "paper_footprint_mb" j);
    footprint_bytes = to_int (member "footprint_bytes" j);
    total_main_refs = to_int (member "total_main_refs" j);
  }

let objects_to_json (o : objects_payload) =
  Obj
    [
      ("info", info_to_json o.info);
      ("summary", Serial.summary_to_json o.summary);
      ("distribution", Serial.distribution_to_json o.distribution);
      ("report", Serial.object_report_to_json o.report);
      ("cdf", Serial.cdf_to_json o.cdf);
      ("variance", Serial.variance_to_json o.variance);
      ("untouched_fraction", float o.untouched_fraction);
    ]

let objects_of_json j =
  {
    info = info_of_json (member "info" j);
    summary = Serial.summary_of_json (member "summary" j);
    distribution = Serial.distribution_of_json (member "distribution" j);
    report = Serial.object_report_of_json (member "report" j);
    cdf = Serial.cdf_of_json (member "cdf" j);
    variance = Serial.variance_of_json (member "variance" j);
    untouched_fraction = to_float (member "untouched_fraction" j);
  }

let power_row_to_json (r : power_row) =
  Obj
    [
      ("tech", Str r.tech_name);
      ("avg_power_w", float r.avg_power_w);
      ("elapsed_ns", float r.elapsed_ns);
      ("row_hit_rate", float r.row_hit_rate);
      ("bandwidth_gbs", float r.bandwidth_gbs);
      ("normalized", float r.normalized);
    ]

let power_row_of_json j =
  {
    tech_name = to_str (member "tech" j);
    avg_power_w = to_float (member "avg_power_w" j);
    elapsed_ns = to_float (member "elapsed_ns" j);
    row_hit_rate = to_float (member "row_hit_rate" j);
    bandwidth_gbs = to_float (member "bandwidth_gbs" j);
    normalized = to_float (member "normalized" j);
  }

let power_to_json (p : power_payload) =
  Obj
    [
      ("info", info_to_json p.p_info);
      ("trace_length", Int p.trace_length);
      ("trace_reads", Int p.trace_reads);
      ("trace_writes", Int p.trace_writes);
      ("l1_miss_rate", float p.l1_miss_rate);
      ("l2_miss_rate", float p.l2_miss_rate);
      ("rows", List (List.map power_row_to_json p.power_rows));
      ("pipeline", Serial.pipeline_to_json p.p_pipeline);
    ]

let power_of_json j =
  {
    p_info = info_of_json (member "info" j);
    trace_length = to_int (member "trace_length" j);
    trace_reads = to_int (member "trace_reads" j);
    trace_writes = to_int (member "trace_writes" j);
    l1_miss_rate = to_float (member "l1_miss_rate" j);
    l2_miss_rate = to_float (member "l2_miss_rate" j);
    power_rows = List.map power_row_of_json (to_list (member "rows" j));
    p_pipeline = Serial.pipeline_of_json (member "pipeline" j);
  }

let perf_row_to_json (r : perf_row) =
  Obj
    [
      ("tech", Str r.perf_tech_name);
      ("latency_ns", float r.latency_ns);
      ("runtime_ns", float r.runtime_ns);
      ("normalized_runtime", float r.normalized_runtime);
      ("posted_runtime_ns", float r.posted_runtime_ns);
      ("posted_normalized_runtime", float r.posted_normalized_runtime);
    ]

let perf_row_of_json j =
  {
    perf_tech_name = to_str (member "tech" j);
    latency_ns = to_float (member "latency_ns" j);
    runtime_ns = to_float (member "runtime_ns" j);
    normalized_runtime = to_float (member "normalized_runtime" j);
    posted_runtime_ns = to_float (member "posted_runtime_ns" j);
    posted_normalized_runtime =
      to_float (member "posted_normalized_runtime" j);
  }

let item_to_json (i : Nvsc_placement.Item.t) =
  Obj
    [
      ("id", Int i.id);
      ("name", Str i.name);
      ("size", Int i.size_bytes);
      ("reads", Int i.reads);
      ("writes", Int i.writes);
      ("ref_share", float i.ref_share);
    ]

let item_of_json j : Nvsc_placement.Item.t =
  {
    id = to_int (member "id" j);
    name = to_str (member "name" j);
    size_bytes = to_int (member "size" j);
    reads = to_int (member "reads" j);
    writes = to_int (member "writes" j);
    ref_share = to_float (member "ref_share" j);
  }

let place_to_json (p : place_payload) =
  Obj
    [
      ("tech", Str p.place_tech_name);
      ("footprint", Int p.place_footprint_bytes);
      ("nvram_items", List (List.map item_to_json p.nvram_items));
      ("assessment", Serial.assessment_to_json p.assessment);
    ]

let place_of_json j =
  {
    place_tech_name = to_str (member "tech" j);
    place_footprint_bytes = to_int (member "footprint" j);
    nvram_items = List.map item_of_json (to_list (member "nvram_items" j));
    assessment = Serial.assessment_of_json (member "assessment" j);
  }

let payload_to_json = function
  | Objects_result o -> Obj [ ("kind", Str "objects"); ("data", objects_to_json o) ]
  | Power_result p -> Obj [ ("kind", Str "power"); ("data", power_to_json p) ]
  | Perf_result rows ->
    Obj
      [
        ("kind", Str "perf");
        ("data", List (List.map perf_row_to_json rows));
      ]
  | Place_result p -> Obj [ ("kind", Str "place"); ("data", place_to_json p) ]
  | Study_result texts ->
    Obj
      [
        ("kind", Str "study");
        ("data", Obj (List.map (fun (key, text) -> (key, Str text)) texts));
      ]

let payload_of_json j =
  let data = member "data" j in
  match to_str (member "kind" j) with
  | "objects" -> Objects_result (objects_of_json data)
  | "power" -> Power_result (power_of_json data)
  | "perf" -> Perf_result (List.map perf_row_of_json (to_list data))
  | "place" -> Place_result (place_of_json data)
  | "study" -> (
    match data with
    | Obj fields -> Study_result (List.map (fun (k, t) -> (k, to_str t)) fields)
    | _ -> raise (Parse_error "Cell: study payload is not an object"))
  | s -> raise (Parse_error (Printf.sprintf "Cell: unknown payload kind %S" s))

(* --- execution ---------------------------------------------------------- *)

let find_app name =
  match Nvsc_apps.Apps.find name with
  | Some app -> app
  | None ->
    invalid_arg
      (Printf.sprintf "Cell.execute: unknown application %S (known: %s)" name
         (String.concat ", " Nvsc_apps.Apps.extended_names))

let info_of_result (r : Scavenger.result) =
  {
    description = r.description;
    input_description = r.input_description;
    paper_footprint_mb = r.paper_footprint_mb;
    footprint_bytes = r.footprint_bytes;
    total_main_refs = r.total_main_refs;
  }

let objects_payload_of_result (r : Scavenger.result) =
  {
    info = info_of_result r;
    summary = Stack_analysis.summarize r;
    distribution = Stack_analysis.distribution r;
    report = Object_analysis.analyze r;
    cdf = Usage_variance.usage_cdf r;
    variance = Usage_variance.variance r;
    untouched_fraction = Usage_variance.untouched_in_main_fraction r;
  }

let power_rows ?jobs trace =
  let results =
    Nvsc_dramsim.Memory_system.compare_technologies ?jobs
      ~techs:Technology.paper_set
      ~replay:(fun sink -> Trace_log.replay_batch trace sink)
      ()
  in
  let normalized = Nvsc_dramsim.Memory_system.normalized_power results in
  List.map2
    (fun ((t : Technology.t), (s : Nvsc_dramsim.Controller.stats))
         ((t' : Technology.t), n) ->
      assert (t.tech = t'.Technology.tech);
      {
        tech_name = t.name;
        avg_power_w = s.avg_power_w;
        elapsed_ns = s.elapsed_ns;
        row_hit_rate = s.row_hit_rate;
        bandwidth_gbs = s.bandwidth_gbs;
        normalized = n;
      })
    results normalized

let power_payload_of_result ?jobs (r : Scavenger.result) =
  let trace = Option.get r.mem_trace in
  {
    p_info = info_of_result r;
    trace_length = Trace_log.length trace;
    trace_reads = Trace_log.reads trace;
    trace_writes = Trace_log.writes trace;
    l1_miss_rate = r.l1_miss_rate;
    l2_miss_rate = r.l2_miss_rate;
    power_rows = power_rows ?jobs trace;
    p_pipeline = r.pipeline;
  }

let perf_rows_of_points points =
  List.map
    (fun (p : Nvsc_cpusim.Sensitivity.point) ->
      {
        perf_tech_name = p.tech.Technology.name;
        latency_ns = p.latency_ns;
        runtime_ns = p.runtime_ns;
        normalized_runtime = p.normalized_runtime;
        posted_runtime_ns = p.posted_runtime_ns;
        posted_normalized_runtime = p.posted_normalized_runtime;
      })
    points

(* Figure 12 drives the application (or the trace) once, at the perf
   scale and one iteration, into a performance model with one cycle ledger
   per technology; that pass is not a [Scavenger.run], so a perf cell
   never shares one. *)
let execute_perf ?trace spec =
  let replay =
    match trace with
    | Some path -> Nvsc_core.Trace_run.perf_replay path
    | None ->
      Nvsc_core.Experiment.perf_replay ~scale:spec.scale (find_app spec.app)
  in
  Perf_result
    (perf_rows_of_points (Nvsc_cpusim.Sensitivity.run ~replay ()))

let place_payload_of_result spec (r : Scavenger.result) =
  let tech =
    Technology.get (Option.value spec.tech ~default:Technology.STTRAM)
  in
  let hybrid =
    Nvsc_core.Profile_placement.(static_plan ~tech r (items r))
  in
  {
    place_tech_name = tech.name;
    place_footprint_bytes = r.footprint_bytes;
    nvram_items =
      Nvsc_placement.Hybrid_memory.items_in hybrid
        Nvsc_placement.Hybrid_memory.Nvram;
    assessment = Nvsc_placement.Hybrid_memory.assess hybrid;
  }

let m_cells = Nvsc_obs.Metrics.counter "sweep.cells"

let shares_pass a b =
  a.kind <> Perf && b.kind <> Perf && a.app = b.app && a.scale = b.scale
  && a.iterations = b.iterations && a.trace_digest = b.trace_digest

(* Groups in order of first appearance, members in input order.  Sharing
   is an equivalence on non-perf cells, so any member stands for its
   group. *)
let group cells =
  let rec add cell = function
    | [] -> [ [ cell ] ]
    | ((_, member) :: _ as g) :: rest when shares_pass member (snd cell) ->
      (cell :: g) :: rest
    | g :: rest -> g :: add cell rest
  in
  List.map List.rev (List.fold_left (fun groups c -> add c groups) [] cells)

let check_trace ?trace (spec : spec) =
  match (trace, spec.trace_digest) with
  | Some path, Some pinned ->
    (* the pinned digest is re-verified against the file, so a cached
       payload can only ever be served for the exact trace content it
       was computed from *)
    let _, digest = Nvsc_core.Trace_run.info path in
    if digest <> pinned then
      invalid_arg
        (Printf.sprintf
           "Cell.execute: trace %s has digest %s but the spec pins %s" path
           digest pinned)
  | None, Some _ ->
    invalid_arg
      "Cell.execute: spec pins a trace digest but no trace file was given"
  | Some _, None | None, None -> ()

(* The one pass a group shares: a trace-fed group streams the recorded
   reference stream and never re-runs the application; a live group
   filters its main-memory trace only when a power cell needs it. *)
let shared_pass ?trace ~traced (spec : spec) =
  match trace with
  | Some path -> Nvsc_core.Trace_run.replay path
  | None ->
    Scavenger.run
      Scavenger.Config.(
        default |> with_scale spec.scale
        |> with_iterations spec.iterations
        |> with_trace traced)
      (find_app spec.app)

let execute_group ?jobs ?trace specs =
  match specs with
  | [] -> []
  | lead :: rest ->
    if rest <> [] && not (List.for_all (shares_pass lead) specs) then
      invalid_arg "Cell.execute_group: the cells do not share one pass";
    check_trace ?trace lead;
    let traced =
      List.exists (fun s -> s.kind = Power || s.kind = Study) specs
    in
    let pass = lazy (shared_pass ?trace ~traced lead) in
    List.map
      (fun spec ->
        Nvsc_obs.Span.with_
          ~arg:(spec.app ^ "/" ^ kind_to_string spec.kind)
          "sweep.cell"
        @@ fun () ->
        Nvsc_obs.Metrics.Counter.incr m_cells;
        match spec.kind with
        | Objects -> Objects_result (objects_payload_of_result (Lazy.force pass))
        | Power -> Power_result (power_payload_of_result ?jobs (Lazy.force pass))
        | Place -> Place_result (place_payload_of_result spec (Lazy.force pass))
        | Perf -> execute_perf ?trace spec
        | Study ->
          Study_result (Nvsc_core.Extensions.run_studies (Lazy.force pass)))
      specs

let execute ?trace spec =
  match execute_group ?trace [ spec ] with
  | [ payload ] -> payload
  | _ -> assert false

(* --- rendering ---------------------------------------------------------- *)

(* Report sections, exposed individually so that a request plan can
   compose exactly the sections each nvscav report holds (analyze =
   summary + usage; run = summary, trace line, normalized power,
   assessment; ...) from payloads, fresh or decoded.  The local
   subcommands and the serve daemon render through the same plans. *)

let pp_header fmt spec =
  match spec.tech with
  | None ->
    Format.fprintf fmt "== %s · %s (scale %g, %d iterations) ==@." spec.app
      (kind_to_string spec.kind) spec.scale spec.iterations
  | Some t ->
    Format.fprintf fmt "== %s · %s · %s (scale %g, %d iterations) ==@."
      spec.app (kind_to_string spec.kind) (tech_name t) spec.scale
      spec.iterations

let pp_objects_summary fmt (o : objects_payload) =
  Stack_analysis.pp_summary_table fmt [ o.summary ];
  Object_analysis.pp_report fmt o.report

let pp_objects_usage fmt (o : objects_payload) =
  Format.fprintf fmt "untouched in main loop: %s of long-term data@."
    (Table.cell_pct o.untouched_fraction);
  Usage_variance.pp_variance fmt o.variance

let pp_trace_line fmt ~length ~reads ~writes =
  Format.fprintf fmt "main-memory trace: %d accesses (%d reads, %d writes)@."
    length reads writes

let pp_power_trace_line fmt (p : power_payload) =
  pp_trace_line fmt ~length:p.trace_length ~reads:p.trace_reads
    ~writes:p.trace_writes

let pp_row_stats fmt rows =
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-8s avg power %a  elapsed %a  row-hit %.2f  bandwidth %.2fGB/s@."
        r.tech_name Units.pp_watts r.avg_power_w Units.pp_ns r.elapsed_ns
        r.row_hit_rate r.bandwidth_gbs)
    rows

let pp_power_stats fmt (p : power_payload) = pp_row_stats fmt p.power_rows

let pp_row_normalized fmt rows =
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8s normalized power %.3f@." r.tech_name
        r.normalized)
    rows

let pp_power_normalized fmt (p : power_payload) =
  pp_row_normalized fmt p.power_rows

let pp_power_of_trace fmt trace =
  let rows = power_rows trace in
  pp_trace_line fmt ~length:(Trace_log.length trace)
    ~reads:(Trace_log.reads trace) ~writes:(Trace_log.writes trace);
  pp_row_stats fmt rows;
  pp_row_normalized fmt rows

(* A posted row ran at the technology's own read and write latencies,
   not at the paper's one simulated latency the payload records. *)
let pp_perf_points ?(posted = false) fmt rows =
  List.iter
    (fun r ->
      if posted then
        let t = Option.get (Technology.of_string r.perf_tech_name) in
        Format.fprintf fmt "%-8s %8s  runtime %a  normalized %.3f@."
          r.perf_tech_name
          (Printf.sprintf "%.0f/%.0fns" t.read_latency_ns t.write_latency_ns)
          Units.pp_ns r.posted_runtime_ns r.posted_normalized_runtime
      else
        Format.fprintf fmt "%-8s %6.0fns  runtime %a  normalized %.3f@."
          r.perf_tech_name r.latency_ns Units.pp_ns r.runtime_ns
          r.normalized_runtime)
    rows

let pp_place_items fmt (p : place_payload) =
  List.iter
    (fun (item : Nvsc_placement.Item.t) ->
      Format.fprintf fmt "NVRAM <- %a@." Nvsc_placement.Item.pp item)
    p.nvram_items

let pp_place_assessment fmt (p : place_payload) =
  Nvsc_placement.Hybrid_memory.pp_assessment fmt p.assessment;
  Format.pp_print_newline fmt ()

let render fmt spec payload =
  pp_header fmt spec;
  match payload with
  | Objects_result o ->
    pp_objects_summary fmt o;
    pp_objects_usage fmt o
  | Power_result p ->
    pp_power_trace_line fmt p;
    pp_power_stats fmt p;
    pp_power_normalized fmt p
  | Perf_result rows -> pp_perf_points fmt rows
  | Place_result p ->
    pp_place_items fmt p;
    pp_place_assessment fmt p
  | Study_result texts ->
    List.iter (fun (_, text) -> Format.pp_print_string fmt text) texts
