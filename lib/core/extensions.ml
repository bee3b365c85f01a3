module Mem_object = Nvsc_memtrace.Mem_object
module Trace_log = Nvsc_memtrace.Trace_log
module Technology = Nvsc_nvram.Technology
module Suitability = Nvsc_nvram.Suitability
module HM = Nvsc_placement.Hybrid_memory
module Item = Nvsc_placement.Item

let profile ~scale ~iterations app =
  Scavenger.run
    Scavenger.Config.(
      default |> with_scale scale |> with_iterations iterations
      |> with_trace true)
    app

let trace_of study (r : Scavenger.result) =
  match r.mem_trace with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Extensions.%s: %s profile lacks a trace" study
         r.app_name)

(* The application a profile was taken of, for the studies that run it a
   second time. *)
let app_of study (r : Scavenger.result) =
  match Nvsc_apps.Apps.find r.app_name with
  | Some app -> app
  | None ->
    invalid_arg
      (Printf.sprintf "Extensions.%s: unknown application %S" study
         r.app_name)

(* --- sampling ablation -------------------------------------------------- *)

type sampling_ablation = {
  app_name : string;
  sampling_ratio : float;
  full_objects : int;
  lost_objects : int;
  misclassified_read_only : int;
  verdict_flips : int;
}

let verdict_of (m : Object_metrics.t) =
  Suitability.classify ~category:Technology.Cat2_long_write
    (Object_metrics.suitability_metrics m)

let sampling_ablation ?(period = 10_000) ?(sample_length = 100)
    (full : Scavenger.result) =
  let sampled =
    Scavenger.run
      Scavenger.Config.(
        default |> with_scale full.scale
        |> with_iterations full.iterations
        |> with_sampling ~period ~sample_length)
      (app_of "sampling_ablation" full)
  in
  (* objects correspond by name across the two deterministic runs *)
  let sampled_by_name = Hashtbl.create 64 in
  List.iter
    (fun (m : Object_metrics.t) ->
      Hashtbl.replace sampled_by_name m.obj.Mem_object.signature m)
    sampled.Scavenger.metrics;
  let active =
    List.filter
      (fun (m : Object_metrics.t) -> m.reads + m.writes > 0)
      full.Scavenger.metrics
  in
  let lost = ref 0 and misread = ref 0 and flips = ref 0 in
  List.iter
    (fun (m : Object_metrics.t) ->
      match Hashtbl.find_opt sampled_by_name m.obj.Mem_object.signature with
      | None -> incr lost
      | Some s ->
        if s.reads + s.writes = 0 then incr lost
        else begin
          if Object_metrics.is_read_only s && m.writes > 0 then incr misread;
          if verdict_of s <> verdict_of m then incr flips
        end)
    active;
  {
    app_name = full.Scavenger.app_name;
    sampling_ratio = float_of_int sample_length /. float_of_int period;
    full_objects = List.length active;
    lost_objects = !lost;
    misclassified_read_only = !misread;
    verdict_flips = !flips;
  }

(* --- hybrid organisation comparison -------------------------------------- *)

type hybrid_design = {
  app_name : string;
  trace_accesses : int;
  page_hit_rate : float;
  hierarchical_avg_latency_ns : float;
  hierarchical_nvram_bytes : int;
  horizontal_avg_latency_ns : float;
  horizontal_nvram_write_fraction : float;
  latency_advantage : float;
}

let hybrid_design ?(tech = Technology.get Technology.PCRAM)
    (r : Scavenger.result) =
  let trace = trace_of "hybrid_design" r in
  (* hierarchical: a small DRAM page cache (1/4 of the footprint) in front
     of NVRAM *)
  let dram_pages = Stdlib.max 16 (r.Scavenger.footprint_bytes / 4 / 4096) in
  let dc = Nvsc_placement.Dram_cache.create ~dram_pages ~tech () in
  Trace_log.replay_batch trace (Nvsc_placement.Dram_cache.sink dc);
  Nvsc_placement.Dram_cache.drain dc;
  let dstats = Nvsc_placement.Dram_cache.stats dc in
  (* horizontal: static placement over the same footprint, with the same
     DRAM budget *)
  let dram_budget = dram_pages * 4096 in
  let hybrid =
    HM.create ~dram_bytes:dram_budget
      ~nvram_bytes:(4 * r.Scavenger.footprint_bytes) ~tech
  in
  let hybrid =
    Nvsc_placement.Static_policy.plan ~hybrid (Profile_placement.items r)
  in
  let assessment = HM.assess hybrid in
  let horizontal_latency =
    let a = assessment in
    (* traffic-weighted over reads and writes *)
    let reads = Trace_log.reads trace and writes = Trace_log.writes trace in
    let total = float_of_int (reads + writes) in
    if total = 0. then 0.
    else
      ((float_of_int reads *. a.HM.avg_read_latency_ns)
      +. (float_of_int writes *. a.HM.avg_write_latency_ns))
      /. total
  in
  {
    app_name = r.Scavenger.app_name;
    trace_accesses = dstats.Nvsc_placement.Dram_cache.accesses;
    page_hit_rate = dstats.hit_rate;
    hierarchical_avg_latency_ns = dstats.avg_latency_ns;
    hierarchical_nvram_bytes = dstats.nvram_traffic_bytes;
    horizontal_avg_latency_ns = horizontal_latency;
    horizontal_nvram_write_fraction = assessment.HM.write_traffic_to_nvram;
    latency_advantage =
      (if horizontal_latency > 0. then
         dstats.avg_latency_ns /. horizontal_latency
       else 0.);
  }

type crossover_point = {
  hot_fraction : float;
  hit_rate : float;
  hierarchical_latency_ns : float;
  flat_nvram_latency_ns : float;
  dram_cache_wins : bool;
}

let dram_cache_crossover ?(tech = Technology.get Technology.PCRAM)
    ?(accesses = 100_000) ~hot_fractions () =
  List.map
    (fun hot_fraction ->
      let dram_pages = 512 in
      (* hot set fits the cache; the cold set is 64x larger *)
      let hot_lines = dram_pages * 4096 / 64 in
      let dc = Nvsc_placement.Dram_cache.create ~dram_pages ~tech () in
      let dc_sink = Nvsc_placement.Dram_cache.sink dc in
      ignore
        (Nvsc_memtrace.Trace_gen.into
           (Nvsc_memtrace.Trace_gen.hot_cold ~seed:11 ~hot_fraction ~hot_lines
              ~cold_lines:(64 * hot_lines) ~write_fraction:0.25 ~n:accesses ())
           dc_sink);
      Nvsc_memtrace.Sink.flush dc_sink;
      let s = Nvsc_placement.Dram_cache.stats dc in
      (* flat NVRAM: every access pays the device latency, no fills *)
      let flat =
        (0.75 *. tech.Technology.read_latency_ns)
        +. (0.25 *. tech.Technology.write_latency_ns)
      in
      {
        hot_fraction;
        hit_rate = s.Nvsc_placement.Dram_cache.hit_rate;
        hierarchical_latency_ns = s.avg_latency_ns;
        flat_nvram_latency_ns = flat;
        dram_cache_wins = s.avg_latency_ns < flat;
      })
    hot_fractions

(* --- placement summary ---------------------------------------------------- *)

type placement_summary = {
  app_name : string;
  objects : int;
  static_nvram_fraction : float;
  static_slowdown_bound : float;
  dynamic_nvram_fraction : float;
  dynamic_slowdown_bound : float;
  migrations : int;
  migrated_bytes : int;
}

let placement_summary ?(tech = Technology.get Technology.STTRAM)
    (r : Scavenger.result) =
  let metrics = Scavenger.global_and_heap_metrics r in
  let items = Profile_placement.items r in
  let sa = HM.assess (Profile_placement.static_plan ~tech r items) in
  (* dynamic: start everything in NVRAM, feed per-iteration counters *)
  let policy = Profile_placement.dynamic_start ~tech r items in
  let hybrid = Nvsc_placement.Dynamic_policy.hybrid policy in
  for iter = 1 to r.Scavenger.iterations do
    (* the items are the metrics', one for one and in order *)
    let epoch =
      List.map2
        (fun (m : Object_metrics.t) item ->
          {
            Nvsc_placement.Dynamic_policy.item;
            reads = m.per_iter_reads.(iter - 1);
            writes = m.per_iter_writes.(iter - 1);
          })
        metrics items
    in
    Nvsc_placement.Dynamic_policy.observe_epoch policy epoch
  done;
  let da = HM.assess hybrid in
  {
    app_name = r.Scavenger.app_name;
    objects = List.length items;
    static_nvram_fraction = sa.HM.nvram_fraction;
    static_slowdown_bound = sa.HM.slowdown_bound;
    dynamic_nvram_fraction = da.HM.nvram_fraction;
    dynamic_slowdown_bound = da.HM.slowdown_bound;
    migrations = HM.migrations hybrid;
    migrated_bytes = HM.migrated_bytes hybrid;
  }

(* --- fine-grained dynamic placement ------------------------------------------ *)

type fine_grained = {
  app_name : string;
  window_refs : int;
  windows : int;
  migrations : int;
  avg_nvram_fraction : float;
  final_nvram_fraction : float;
}

let fine_grained_placement ?(window_refs = 100_000)
    ?(tech = Technology.get Technology.STTRAM) (profile : Scavenger.result) =
  let (module A : Nvsc_apps.Workload.APP) =
    app_of "fine_grained_placement" profile
  in
  (* the profile gives the object population (ids are deterministic) *)
  let items = Profile_placement.items profile in
  let total_bytes =
    List.fold_left (fun acc (i : Item.t) -> acc + i.size_bytes) 0 items
  in
  let item_by_id = Hashtbl.create 64 in
  List.iter (fun (i : Item.t) -> Hashtbl.replace item_by_id i.id i) items;
  (* online pass: the monitor drives the policy as the app runs *)
  let policy = Profile_placement.dynamic_start ~tech profile items in
  let hybrid = Nvsc_placement.Dynamic_policy.hybrid policy in
  let residency_sum = ref 0. in
  let samples = ref 0 in
  let on_window counts =
    let epoch =
      List.filter_map
        (fun (obj_id, reads, writes) ->
          match Hashtbl.find_opt item_by_id obj_id with
          | Some item -> Some { Nvsc_placement.Dynamic_policy.item; reads; writes }
          | None -> None (* stack frames are not placeable objects *))
        counts
    in
    Nvsc_placement.Dynamic_policy.observe_epoch policy epoch;
    residency_sum :=
      !residency_sum
      +. (float_of_int (HM.used_bytes hybrid HM.Nvram) /. float_of_int total_bytes);
    incr samples
  in
  let ctx = Nvsc_appkit.Ctx.create () in
  let monitor = Fine_monitor.attach ctx ~window_refs ~on_window in
  A.run ~scale:profile.scale ctx ~iterations:profile.iterations;
  Fine_monitor.flush monitor;
  {
    app_name = profile.app_name;
    window_refs;
    windows = Fine_monitor.windows monitor;
    migrations = HM.migrations hybrid;
    avg_nvram_fraction =
      (if !samples = 0 then 0. else !residency_sum /. float_of_int !samples);
    final_nvram_fraction =
      float_of_int (HM.used_bytes hybrid HM.Nvram) /. float_of_int total_bytes;
  }

let pp_fine_grained fmt (f : fine_grained) =
  Format.fprintf fmt
    "%-8s %d windows of %d refs: %d migrations, NVRAM residency %4.1f%% \
     (avg) / %4.1f%% (final)@."
    f.app_name f.windows f.window_refs f.migrations
    (100. *. f.avg_nvram_fraction)
    (100. *. f.final_nvram_fraction)

(* --- hybrid memory-system simulation ---------------------------------------- *)

type hybrid_simulation = {
  app_name : string;
  nvram_bytes_fraction : float;
  nvram_access_fraction : float;
  nvram_write_fraction : float;
  designs : (string * float * float) list;
}

(* Address-to-side routing from the static plan: an interval map over the
   NVRAM-resident objects' ranges. *)
let interval_table hybrid metrics =
  let nvram_items = HM.items_in hybrid HM.Nvram in
  let nvram_ids =
    List.fold_left (fun acc (i : Item.t) -> (i.id, ()) :: acc) [] nvram_items
  in
  let map =
    Nvsc_util.Interval_map.build
      (List.filter_map
         (fun (m : Object_metrics.t) ->
           if List.mem_assoc m.obj.Mem_object.id nvram_ids then
             Some
               ( m.obj.Mem_object.base,
                 m.obj.Mem_object.base + m.obj.Mem_object.size,
                 () )
           else None)
         metrics)
  in
  fun addr ->
    match Nvsc_util.Interval_map.find map addr with
    | Some () -> Nvsc_dramsim.Hybrid_system.Nvram_side
    | None -> Nvsc_dramsim.Hybrid_system.Dram_side

let hybrid_simulation ?(tech = Technology.get Technology.STTRAM)
    (r : Scavenger.result) =
  let trace = trace_of "hybrid_simulation" r in
  let hybrid =
    Profile_placement.static_plan ~tech r (Profile_placement.items r)
  in
  let placement =
    interval_table hybrid (Scavenger.global_and_heap_metrics r)
  in
  let replay sink = Trace_log.replay_batch trace sink in
  let designs, hs =
    Nvsc_dramsim.Hybrid_system.compare_designs ~nvram:tech ~placement ~replay ()
  in
  {
    app_name = r.Scavenger.app_name;
    nvram_bytes_fraction = (HM.assess hybrid).HM.nvram_fraction;
    nvram_access_fraction = hs.Nvsc_dramsim.Hybrid_system.nvram_fraction;
    nvram_write_fraction = hs.Nvsc_dramsim.Hybrid_system.nvram_write_fraction;
    designs;
  }

let pp_hybrid_simulation fmt (h : hybrid_simulation) =
  Format.fprintf fmt
    "%-8s NVRAM holds %4.1f%% of bytes, %4.1f%% of accesses (%4.1f%% of \
     writes):@."
    h.app_name
    (100. *. h.nvram_bytes_fraction)
    (100. *. h.nvram_access_fraction)
    (100. *. h.nvram_write_fraction);
  List.iter
    (fun (design, power, latency) ->
      Format.fprintf fmt "         %-12s power %.3f  latency %5.1fns@." design
        power latency)
    h.designs

(* --- Table VI robustness --------------------------------------------------- *)

let power_sensitivity (r : Scavenger.result) =
  let trace = trace_of "power_sensitivity" r in
  let replay sink = Trace_log.replay_batch trace sink in
  let configs =
    [
      ("default (FCFS, row:bank:rank:col, open-page)", fun () ->
        Nvsc_dramsim.Memory_system.compare_technologies
          ~techs:Technology.paper_set ~replay ());
      ("FR-FCFS 16", fun () ->
        Nvsc_dramsim.Memory_system.compare_technologies
          ~scheduler:(Nvsc_dramsim.Controller.Fr_fcfs 16)
          ~techs:Technology.paper_set ~replay ());
      ("line-interleaved mapping", fun () ->
        Nvsc_dramsim.Memory_system.compare_technologies
          ~scheme:Nvsc_dramsim.Address_mapping.Line_interleave
          ~techs:Technology.paper_set ~replay ());
      ("closed-page policy", fun () ->
        Nvsc_dramsim.Memory_system.compare_technologies
          ~row_policy:Nvsc_dramsim.Controller.Closed_page
          ~techs:Technology.paper_set ~replay ());
    ]
  in
  List.map
    (fun (label, run) ->
      (label, Nvsc_dramsim.Memory_system.normalized_power (run ())))
    configs

(* --- row policy ablation -------------------------------------------------- *)

let row_policy_ablation trace ~tech =
  List.map
    (fun policy ->
      let c = Nvsc_dramsim.Controller.create ~row_policy:policy ~tech () in
      Trace_log.replay_batch trace (Nvsc_dramsim.Controller.sink c);
      (policy, Nvsc_dramsim.Controller.stats c))
    [ Nvsc_dramsim.Controller.Open_page; Nvsc_dramsim.Controller.Closed_page ]

(* --- printing -------------------------------------------------------------- *)

let pp_sampling fmt (s : sampling_ablation) =
  Format.fprintf fmt
    "%-8s %4.0f%% sample: %d/%d objects lost, %d falsely read-only, %d \
     verdict flips@."
    s.app_name
    (100. *. s.sampling_ratio)
    s.lost_objects s.full_objects s.misclassified_read_only s.verdict_flips

let pp_hybrid fmt (h : hybrid_design) =
  Format.fprintf fmt
    "%-8s page-cache hit %.2f  latency: hierarchical %.1fns vs horizontal \
     %.1fns (%.2fx)  NVRAM traffic %a@."
    h.app_name h.page_hit_rate h.hierarchical_avg_latency_ns
    h.horizontal_avg_latency_ns h.latency_advantage Nvsc_util.Units.pp_bytes
    h.hierarchical_nvram_bytes

let pp_placement fmt (p : placement_summary) =
  Format.fprintf fmt
    "%-8s static: %4.1f%% bytes in NVRAM (slowdown bound %.3f); dynamic: \
     %4.1f%% (bound %.3f) after %d migrations (%a)@."
    p.app_name
    (100. *. p.static_nvram_fraction)
    p.static_slowdown_bound
    (100. *. p.dynamic_nvram_fraction)
    p.dynamic_slowdown_bound p.migrations Nvsc_util.Units.pp_bytes
    p.migrated_bytes

(* --- the studies of one application ------------------------------------ *)

let pp_power_sensitivity fmt r =
  List.iter
    (fun (label, powers) ->
      Format.fprintf fmt "%-45s" label;
      List.iter
        (fun ((t : Technology.t), p) -> Format.fprintf fmt " %s=%.3f" t.name p)
        powers;
      Format.pp_print_newline fmt ())
    (power_sensitivity r)

let pp_row_policy fmt (r : Scavenger.result) =
  List.iter
    (fun (policy, (s : Nvsc_dramsim.Controller.stats)) ->
      Format.fprintf fmt
        "%s %-12s row-hit %.2f  avg latency %.1fns  power %a@." r.app_name
        (match policy with
        | Nvsc_dramsim.Controller.Open_page -> "open-page"
        | Nvsc_dramsim.Controller.Closed_page -> "closed-page")
        s.row_hit_rate s.avg_latency_ns Nvsc_util.Units.pp_watts s.avg_power_w)
    (row_policy_ablation
       (trace_of "row_policy_ablation" r)
       ~tech:(Technology.get Technology.DDR3))

(* Which study runs on which application, in report order: section key,
   the one application the study is restricted to ([None]: every one),
   and the study's printer over the application's profile. *)
let studies =
  [
    ("sampling", None, fun fmt r -> pp_sampling fmt (sampling_ablation r));
    ("hybrid", None, fun fmt r -> pp_hybrid fmt (hybrid_design r));
    ("placement", None, fun fmt r -> pp_placement fmt (placement_summary r));
    ( "hybrid-simulation",
      None,
      fun fmt r -> pp_hybrid_simulation fmt (hybrid_simulation r) );
    ("power-sensitivity", Some "cam", pp_power_sensitivity);
    ( "traffic",
      Some "cam",
      fun fmt r ->
        Traffic_attribution.pp_report fmt (Traffic_attribution.analyze r) );
    ( "fine-grained",
      Some "nek5000",
      fun fmt r -> pp_fine_grained fmt (fine_grained_placement r) );
    ( "multi-task",
      None,
      fun fmt (r : Scavenger.result) ->
        Multi_task.pp fmt
          (Multi_task.run ~base_scale:r.scale ~iterations:r.iterations
             (app_of "multi_task" r)) );
    ("row-policy", Some "s3d", pp_row_policy);
  ]

let run_studies (r : Scavenger.result) =
  List.filter_map
    (fun (key, only, print) ->
      match only with
      | Some app when app <> r.app_name -> None
      | _ -> Some (key, Format.asprintf "%a" print r))
    studies

(* --- printing the report ---------------------------------------------------- *)

let run_all fmt ~texts (data : Experiment.data) =
  let header ?(first = false) title =
    if not first then Format.pp_print_newline fmt ();
    Format.fprintf fmt "== Extension: %s ==@." title
  in
  let study key =
    List.iter
      (fun (_, sections) ->
        Option.iter (Format.pp_print_string fmt) (List.assoc_opt key sections))
      texts
  in
  header ~first:true "sampling ablation (the design §III-D rejects)";
  study "sampling";
  header "hybrid organisation (horizontal vs DRAM-cache, §II)";
  study "hybrid";
  header "DRAM-cache locality crossover (PCRAM backing)";
  List.iter
    (fun (c : crossover_point) ->
      Format.fprintf fmt
        "hot fraction %.2f: hit rate %.2f, hierarchical %.0fns vs flat NVRAM \
         %.0fns -> %s@."
        c.hot_fraction c.hit_rate c.hierarchical_latency_ns
        c.flat_nvram_latency_ns
        (if c.dram_cache_wins then "DRAM cache wins"
         else "DRAM cache loses (the paper's poor-locality case)"))
    (dram_cache_crossover ~hot_fractions:[ 0.99; 0.95; 0.9; 0.7; 0.5; 0.2 ] ());
  header "placement policies (§VII-C)";
  study "placement";
  header
    "hybrid memory-system simulation (the run §V could not do; STTRAM half)";
  study "hybrid-simulation";
  header "Table VI robustness to controller choices (cam)";
  study "power-sensitivity";
  header "main-memory traffic attribution (cam)";
  study "traffic";
  header "fine-grained dynamic placement (§VII-C's monitor, nek5000)";
  study "fine-grained";
  header "multi-task representativeness (4 ranks, 20% imbalance)";
  study "multi-task";
  header "figure 12 with true read/write asymmetry (posted writes)";
  Format.fprintf fmt
    "the paper's read=write assumption is a performance lower bound (§V); \
     with posted writes:@.";
  List.iter
    (fun (app, cells) ->
      let get name =
        List.find
          (fun (c : Experiment.fig12_cell) -> c.tech.Technology.name = name)
          cells
      in
      let pcram = get "PCRAM" and sttram = get "STTRAM" in
      Format.fprintf fmt
        "%-8s PCRAM %.3f -> %.3f   STTRAM %.3f -> %.3f@." app
        pcram.normalized_runtime pcram.posted_normalized_runtime
        sttram.normalized_runtime sttram.posted_normalized_runtime)
    data.perf;
  header "row-buffer policy ablation";
  study "row-policy"
