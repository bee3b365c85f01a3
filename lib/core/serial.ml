module Json = Nvsc_util.Json
module Layout = Nvsc_memtrace.Layout
module Suitability = Nvsc_nvram.Suitability

open Json

let fail msg = raise (Json.Parse_error msg)

let kind_to_json k = Str (Layout.kind_to_string k)

let kind_of_json j =
  match to_str j with
  | "global" -> Layout.Global
  | "heap" -> Layout.Heap
  | "stack" -> Layout.Stack
  | s -> fail (Printf.sprintf "Serial: unknown object kind %S" s)

let verdict_to_json (v : Suitability.verdict) =
  Str
    (match v with
    | Nvram_friendly -> "friendly"
    | Nvram_candidate -> "candidate"
    | Dram_preferred -> "dram")

let verdict_of_json j : Suitability.verdict =
  match to_str j with
  | "friendly" -> Nvram_friendly
  | "candidate" -> Nvram_candidate
  | "dram" -> Dram_preferred
  | s -> fail (Printf.sprintf "Serial: unknown verdict %S" s)

(* --- stack analysis ----------------------------------------------------- *)

let summary_to_json (s : Stack_analysis.summary) =
  Obj
    [
      ("app", Str s.app_name);
      ("rw_ratio", float s.rw_ratio);
      ("first_iter_ratio", float s.first_iter_ratio);
      ("steady_ratio", float s.steady_ratio);
      ("reference_pct", float s.reference_pct);
    ]

let summary_of_json j : Stack_analysis.summary =
  {
    app_name = to_str (member "app" j);
    rw_ratio = to_float (member "rw_ratio" j);
    first_iter_ratio = to_float (member "first_iter_ratio" j);
    steady_ratio = to_float (member "steady_ratio" j);
    reference_pct = to_float (member "reference_pct" j);
  }

let frame_to_json (f : Stack_analysis.frame_row) =
  Obj
    [
      ("routine", Str f.routine);
      ("reads", Int f.reads);
      ("writes", Int f.writes);
      ("rw_ratio", float f.rw_ratio);
      ("ref_share", float f.ref_share);
    ]

let frame_of_json j : Stack_analysis.frame_row =
  {
    routine = to_str (member "routine" j);
    reads = to_int (member "reads" j);
    writes = to_int (member "writes" j);
    rw_ratio = to_float (member "rw_ratio" j);
    ref_share = to_float (member "ref_share" j);
  }

let distribution_to_json (d : Stack_analysis.distribution) =
  Obj
    [
      ("frames", List (List.map frame_to_json d.frames));
      ("pct_gt_10", float d.pct_objects_ratio_gt_10);
      ("pct_gt_50", float d.pct_objects_ratio_gt_50);
      ("refs_gt_10", float d.refs_share_ratio_gt_10);
      ("refs_gt_50", float d.refs_share_ratio_gt_50);
    ]

let distribution_of_json j : Stack_analysis.distribution =
  {
    frames = List.map frame_of_json (to_list (member "frames" j));
    pct_objects_ratio_gt_10 = to_float (member "pct_gt_10" j);
    pct_objects_ratio_gt_50 = to_float (member "pct_gt_50" j);
    refs_share_ratio_gt_10 = to_float (member "refs_gt_10" j);
    refs_share_ratio_gt_50 = to_float (member "refs_gt_50" j);
  }

(* --- object analysis ---------------------------------------------------- *)

let row_to_json (r : Object_analysis.row) =
  Obj
    [
      ("name", Str r.name);
      ("kind", kind_to_json r.kind);
      ("size", Int r.size_bytes);
      ("reads", Int r.reads);
      ("writes", Int r.writes);
      ("rw_ratio", float r.rw_ratio);
      ("ref_share", float r.ref_share);
      ("verdict", verdict_to_json r.verdict);
    ]

let row_of_json j : Object_analysis.row =
  {
    name = to_str (member "name" j);
    kind = kind_of_json (member "kind" j);
    size_bytes = to_int (member "size" j);
    reads = to_int (member "reads" j);
    writes = to_int (member "writes" j);
    rw_ratio = to_float (member "rw_ratio" j);
    ref_share = to_float (member "ref_share" j);
    verdict = verdict_of_json (member "verdict" j);
  }

let object_report_to_json (r : Object_analysis.report) =
  Obj
    [
      ("app", Str r.app_name);
      ("rows", List (List.map row_to_json r.rows));
      ("footprint", Int r.footprint_bytes);
      ("read_only_bytes", Int r.read_only_bytes);
      ("read_only_fraction", float r.read_only_fraction);
      ("ratio_gt_50_bytes", Int r.ratio_gt_50_bytes);
      ("ratio_gt_1_bytes", Int r.ratio_gt_1_bytes);
      ("ratio_gt_1_fraction", float r.ratio_gt_1_fraction);
      ("nvram_friendly_bytes", Int r.nvram_friendly_bytes);
      ("nvram_friendly_fraction", float r.nvram_friendly_fraction);
    ]

let object_report_of_json j : Object_analysis.report =
  {
    app_name = to_str (member "app" j);
    rows = List.map row_of_json (to_list (member "rows" j));
    footprint_bytes = to_int (member "footprint" j);
    read_only_bytes = to_int (member "read_only_bytes" j);
    read_only_fraction = to_float (member "read_only_fraction" j);
    ratio_gt_50_bytes = to_int (member "ratio_gt_50_bytes" j);
    ratio_gt_1_bytes = to_int (member "ratio_gt_1_bytes" j);
    ratio_gt_1_fraction = to_float (member "ratio_gt_1_fraction" j);
    nvram_friendly_bytes = to_int (member "nvram_friendly_bytes" j);
    nvram_friendly_fraction = to_float (member "nvram_friendly_fraction" j);
  }

(* --- usage variance ----------------------------------------------------- *)

let cdf_to_json points =
  List
    (List.map
       (fun (p : Usage_variance.cdf_point) ->
         Obj
           [
             ("iters", Int p.iterations_used);
             ("bytes", Int p.cumulative_bytes);
           ])
       points)

let cdf_of_json j =
  List.map
    (fun p : Usage_variance.cdf_point ->
      {
        iterations_used = to_int (member "iters" p);
        cumulative_bytes = to_int (member "bytes" p);
      })
    (to_list j)

let float_array_to_json a = List (Array.to_list (Array.map Json.float a))

let float_array_of_json j =
  Array.of_list (List.map to_float (to_list j))

let float_matrix_to_json m = List (Array.to_list (Array.map float_array_to_json m))

let float_matrix_of_json j =
  Array.of_list (List.map float_array_of_json (to_list j))

let variance_to_json (v : Usage_variance.variance) =
  Obj
    [
      ("iterations", Int v.iterations);
      ("objects", Int v.objects_considered);
      ("ratio_dist", float_matrix_to_json v.ratio_dist);
      ("rate_dist", float_matrix_to_json v.rate_dist);
      ("rate_unchanged", float_array_to_json v.rate_unchanged);
    ]

let variance_of_json j : Usage_variance.variance =
  {
    iterations = to_int (member "iterations" j);
    objects_considered = to_int (member "objects" j);
    ratio_dist = float_matrix_of_json (member "ratio_dist" j);
    rate_dist = float_matrix_of_json (member "rate_dist" j);
    rate_unchanged = float_array_of_json (member "rate_unchanged" j);
  }

(* --- placement assessment ----------------------------------------------- *)

let assessment_to_json (a : Nvsc_placement.Hybrid_memory.assessment) =
  Obj
    [
      ("nvram_fraction", float a.nvram_fraction);
      ("standby_saving", float a.standby_saving);
      ("write_traffic", float a.write_traffic_to_nvram);
      ("read_traffic", float a.read_traffic_to_nvram);
      ("avg_read_latency_ns", float a.avg_read_latency_ns);
      ("avg_write_latency_ns", float a.avg_write_latency_ns);
      ("slowdown_bound", float a.slowdown_bound);
    ]

let assessment_of_json j : Nvsc_placement.Hybrid_memory.assessment =
  {
    nvram_fraction = to_float (member "nvram_fraction" j);
    standby_saving = to_float (member "standby_saving" j);
    write_traffic_to_nvram = to_float (member "write_traffic" j);
    read_traffic_to_nvram = to_float (member "read_traffic" j);
    avg_read_latency_ns = to_float (member "avg_read_latency_ns" j);
    avg_write_latency_ns = to_float (member "avg_write_latency_ns" j);
    slowdown_bound = to_float (member "slowdown_bound" j);
  }
