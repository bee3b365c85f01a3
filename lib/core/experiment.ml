module Ctx = Nvsc_appkit.Ctx
module Mem_object = Nvsc_memtrace.Mem_object
module Technology = Nvsc_nvram.Technology
module Table = Nvsc_util.Table
module Cache_params = Nvsc_cachesim.Cache_params

type config = { scale : float; iterations : int; perf_scale : float }

(* perf_scale 0.5: the paper's §VII-E simulates a single main-loop
   iteration of a reduced problem to bound full-system-simulation time; at
   this size the working sets sit at the paper's cache pressure. *)
let default_config = { scale = 1.0; iterations = 10; perf_scale = 0.5 }
let quick_config = { scale = 0.25; iterations = 4; perf_scale = 0.25 }

let perf_feed model subscribe =
  let in_main = ref false in
  subscribe
    ~on_phase:(fun p ->
      in_main := match p with Mem_object.Main _ -> true | _ -> false)
    ~on_instr:(fun n ->
      if !in_main then Nvsc_cpusim.Perf_model.instructions model n)
    ~on_refs:(fun batch ~obj_ids:_ ~first ~n ->
      if !in_main then Nvsc_cpusim.Perf_model.consume model batch ~first ~n)

let perf_replay ?(scale = 0.5) (module A : Nvsc_apps.Workload.APP) model =
  let ctx = Ctx.create () in
  perf_feed model (fun ~on_phase ~on_instr ~on_refs ->
      Ctx.observe ctx ~on_phase ~on_instr ~on_refs ());
  (* the paper simulates a single main-loop iteration (§VII-E) *)
  A.run ~scale ctx ~iterations:1;
  Ctx.flush_refs ctx

(* --- data forms ------------------------------------------------------ *)

type table1_row = {
  app_name : string;
  input_description : string;
  description : string;
  footprint_bytes : int;
  paper_footprint_mb : float;
}

type fig12_cell = {
  tech : Technology.t;
  latency_ns : float;
  normalized_runtime : float;
  posted_normalized_runtime : float;
}

(* --- printing forms ---------------------------------------------------- *)

let pp_table1_rows fmt rows =
  let table =
    Table.create ~title:"Table I: Applications characteristics"
      [
        ("Application", Table.Left);
        ("Input problem size", Table.Left);
        ("Description", Table.Left);
        ("Footprint (scaled run)", Table.Right);
        ("Paper footprint", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.app_name;
          r.input_description;
          r.description;
          Table.cell_bytes r.footprint_bytes;
          Printf.sprintf "%.0fMB" r.paper_footprint_mb;
        ])
    rows;
  Table.pp fmt table

let table2 fmt () =
  let table =
    Table.create ~title:"Table II: Cache configuration"
      [ ("Level", Table.Left); ("Configuration", Table.Left) ]
  in
  let describe p =
    Format.asprintf "%a" Cache_params.pp p
  in
  Table.add_row table [ "L1 (private, split I/D)"; describe Cache_params.paper_l1d ];
  Table.add_row table [ "L2 (private)"; describe Cache_params.paper_l2 ];
  Table.pp fmt table

let table3 fmt () =
  let table =
    Table.create ~title:"Table III: System configuration"
      [ ("Feature", Table.Left); ("Value", Table.Left) ]
  in
  let p = Nvsc_cpusim.Core_params.paper in
  Table.add_row table
    [ "CPU cores";
      Printf.sprintf "%.3fGHz x86, out of order, one thread per core"
        p.Nvsc_cpusim.Core_params.clock_ghz ];
  Table.add_row table
    [ "TLB per-core size";
      Printf.sprintf "%d entries" p.Nvsc_cpusim.Core_params.tlb_entries ];
  Table.add_row table [ "L1 cache hit"; "1 CPU cycle" ];
  Table.add_row table [ "L2 cache hit"; "5 CPU cycles" ];
  Table.add_row table
    [ "Size of miss buffer";
      Printf.sprintf "%d entries" p.Nvsc_cpusim.Core_params.miss_buffer ];
  let org = Nvsc_dramsim.Org.paper in
  Table.add_row table
    [ "Memory devices"; Format.asprintf "%a" Nvsc_dramsim.Org.pp org ];
  Table.pp fmt table

let table4 fmt () =
  let table =
    Table.create ~title:"Table IV: Memory access latencies"
      [
        ("Memory", Table.Left);
        ("Real read latency", Table.Right);
        ("Real write latency", Table.Right);
        ("Performance simulation", Table.Right);
      ]
  in
  List.iter
    (fun (t : Technology.t) ->
      Table.add_row table
        [
          t.name;
          Printf.sprintf "%.0fns" t.read_latency_ns;
          Printf.sprintf "%.0fns" t.write_latency_ns;
          Printf.sprintf "%.0fns" t.perf_sim_latency_ns;
        ])
    Technology.paper_set;
  Table.pp fmt table

let pp_fig7_data fmt data =
  List.iter
    (fun (app, points) ->
      Format.fprintf fmt
        "== Figure 7: cumulative memory usage across time steps: %s ==@." app;
      Usage_variance.pp_cdf fmt points)
    data;
  let series =
    List.map
      (fun (app, points) ->
        ( app,
          List.map
            (fun (p : Usage_variance.cdf_point) ->
              ( float_of_int p.iterations_used,
                float_of_int p.cumulative_bytes /. 1048576. ))
            points ))
      data
  in
  Format.pp_print_string fmt
    (Nvsc_util.Ascii_plot.line
       ~title:"Figure 7: cumulative MB vs iterations used"
       ~x_label:"iterations used" ~y_label:"cumulative MB" series)

let pp_fig8_11_data fmt data =
  List.iter
    (fun (app, v) ->
      Format.fprintf fmt
        "== Figures 8-11: per-iteration metric variance: %s ==@." app;
      Usage_variance.pp_variance fmt v)
    data

let pp_table6_data fmt data =
  let table =
    Table.create ~title:"Table VI: Normalized average power consumption"
      ([ ("Application", Table.Left) ]
      @ List.map
          (fun (t : Technology.t) -> (t.name, Table.Right))
          Technology.paper_set)
  in
  List.iter
    (fun (app, powers) ->
      Table.add_row table
        (app :: List.map (fun (_, p) -> Table.cell_f ~prec:3 p) powers))
    data;
  Table.pp fmt table;
  List.iter
    (fun (app, powers) ->
      Format.pp_print_string fmt
        (Nvsc_util.Ascii_plot.bars ~max_value:1.0
           ~title:(Printf.sprintf "Table VI: normalized power, %s" app)
           (List.map (fun ((t : Technology.t), p) -> (t.name, p)) powers)))
    data

let pp_fig12_data fmt data =
  let table =
    Table.create ~title:"Figure 12: Normalized runtime vs memory latency"
      ([ ("Application", Table.Left) ]
      @ List.map
          (fun (t : Technology.t) ->
            (Printf.sprintf "%s (%.0fns)" t.name t.perf_sim_latency_ns,
             Table.Right))
          Technology.paper_set)
  in
  List.iter
    (fun (app, points) ->
      Table.add_row table
        (app
        :: List.map
             (fun p -> Table.cell_f ~prec:3 p.normalized_runtime)
             points))
    data;
  Table.pp fmt table;
  let series =
    List.map
      (fun (app, points) ->
        (app, List.map (fun p -> (p.latency_ns, p.normalized_runtime)) points))
      data
  in
  Format.pp_print_string fmt
    (Nvsc_util.Ascii_plot.line
       ~title:"Figure 12: normalized runtime vs memory latency"
       ~x_label:"memory latency (ns)" ~y_label:"normalized runtime" series)

(* --- evaluation data ------------------------------------------------------ *)

type data = {
  data_config : config;
  rows : table1_row list;
  summaries : Stack_analysis.summary list;
  cam_distribution : Stack_analysis.distribution option;
  reports : Object_analysis.report list;
  cdfs : (string * Usage_variance.cdf_point list) list;
  untouched : (string * float) list;
  variances : (string * Usage_variance.variance) list;
  powers : (string * (Technology.t * float) list) list;
  perf : (string * fig12_cell list) list;
  pipelines : (string * Nvsc_appkit.Ctx.pipeline_stats) list;
}

let run_all_of_data fmt data =
  pp_table1_rows fmt data.rows;
  table2 fmt ();
  table3 fmt ();
  table4 fmt ();
  Stack_analysis.pp_summary_table fmt data.summaries;
  Option.iter (Stack_analysis.pp_distribution fmt) data.cam_distribution;
  List.iter (Object_analysis.pp_report fmt) data.reports;
  pp_fig7_data fmt data.cdfs;
  pp_fig8_11_data fmt data.variances;
  pp_table6_data fmt data.powers;
  pp_fig12_data fmt data.perf
