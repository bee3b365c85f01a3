module Technology = Nvsc_nvram.Technology
module Cache_params = Nvsc_cachesim.Cache_params
module Org = Nvsc_dramsim.Org
module Timing = Nvsc_dramsim.Timing
module Core_params = Nvsc_cpusim.Core_params
module Workload = Nvsc_apps.Workload

let is_pow2 n = n > 0 && n land (n - 1) = 0

let fail c ~owner ~detail =
  Diagnostic.Collector.add c Diagnostic.Config ~owner ~detail

let check c cond ~owner ~detail = if not cond then fail c ~owner ~detail

let with_collector f =
  let c = Diagnostic.Collector.create () in
  f c;
  Diagnostic.Collector.report c

(* --- NVRAM technologies ------------------------------------------------- *)

let technology_c c (t : Technology.t) =
  let owner field = Printf.sprintf "Technology.%s.%s" t.name field in
  check c (t.read_latency_ns > 0.) ~owner:(owner "read_latency_ns")
    ~detail:"read latency must be positive";
  check c
    (t.write_latency_ns >= t.read_latency_ns)
    ~owner:(owner "write_latency_ns")
    ~detail:
      (Printf.sprintf
         "write latency (%.1fns) below read latency (%.1fns): no surveyed \
          cell writes faster than it reads"
         t.write_latency_ns t.read_latency_ns);
  check c
    (t.perf_sim_latency_ns >= t.read_latency_ns
    && t.perf_sim_latency_ns >= t.write_latency_ns)
    ~owner:(owner "perf_sim_latency_ns")
    ~detail:
      "performance-simulation latency must cover the slower of read and \
       write";
  check c (t.read_current_ma > 0.) ~owner:(owner "read_current_ma")
    ~detail:"read current must be positive";
  check c
    (t.write_current_ma >= t.read_current_ma)
    ~owner:(owner "write_current_ma")
    ~detail:"write current below read current";
  check c (t.write_endurance > 0.) ~owner:(owner "write_endurance")
    ~detail:"write endurance must be positive";
  check c (t.standby_power_rel >= 0.) ~owner:(owner "standby_power_rel")
    ~detail:"standby power cannot be negative";
  check c
    (not (t.non_volatile && t.needs_refresh))
    ~owner:(owner "needs_refresh")
    ~detail:"a non-volatile technology does not need refresh";
  check c
    ((t.category = Technology.Volatile) = not t.non_volatile)
    ~owner:(owner "category")
    ~detail:"volatile category and non_volatile flag disagree"

let technology t = with_collector (fun c -> technology_c c t)

(* --- cache hierarchy ---------------------------------------------------- *)

let cache_c c (p : Cache_params.t) =
  let owner field = Printf.sprintf "Cache.%s.%s" p.name field in
  check c (is_pow2 p.size_bytes) ~owner:(owner "size_bytes")
    ~detail:(Printf.sprintf "size %d is not a power of two" p.size_bytes);
  check c (is_pow2 p.line_bytes) ~owner:(owner "line_bytes")
    ~detail:(Printf.sprintf "line size %d is not a power of two" p.line_bytes);
  check c (is_pow2 p.associativity) ~owner:(owner "associativity")
    ~detail:
      (Printf.sprintf "associativity %d is not a power of two" p.associativity);
  check c
    (p.size_bytes >= p.line_bytes * p.associativity)
    ~owner:(owner "size_bytes")
    ~detail:"cache smaller than one set"

let caches_c c ~l1d ~l1i ~l2 =
  List.iter (cache_c c) [ l1d; l1i; l2 ];
  check c
    (l2.Cache_params.size_bytes > l1d.Cache_params.size_bytes)
    ~owner:"Cache.L2.size_bytes"
    ~detail:"L2 must be larger than L1D for an inclusive hierarchy";
  check c
    (l1d.Cache_params.line_bytes = l2.Cache_params.line_bytes
    && l1i.Cache_params.line_bytes = l2.Cache_params.line_bytes)
    ~owner:"Cache.line_bytes"
    ~detail:"all levels must share one line size"

let caches ~l1d ~l1i ~l2 = with_collector (fun c -> caches_c c ~l1d ~l1i ~l2)

(* --- DRAM/NVRAM organisation and timing --------------------------------- *)

let org_c c (o : Org.t) =
  let owner field = Printf.sprintf "Org.%s" field in
  let pow2 v field =
    check c (is_pow2 v) ~owner:(owner field)
      ~detail:(Printf.sprintf "%s = %d is not a power of two" field v)
  in
  pow2 o.ranks "ranks";
  pow2 o.banks "banks";
  pow2 o.rows "rows";
  pow2 o.cols "cols";
  pow2 o.device_width_bits "device_width_bits";
  pow2 o.bus_width_bits "bus_width_bits";
  pow2 o.line_bytes "line_bytes";
  check c
    (Org.row_bytes o >= o.line_bytes)
    ~owner:(owner "cols")
    ~detail:"a row must hold at least one cache line"

let org o = with_collector (fun c -> org_c c o)

let timing_c c ~name (t : Timing.t) =
  let owner field = Printf.sprintf "Timing.%s.%s" name field in
  let pos v field =
    check c (v > 0.) ~owner:(owner field)
      ~detail:(Printf.sprintf "%s = %.2fns must be positive" field v)
  in
  pos t.t_cas_ns "t_cas_ns";
  pos t.t_rcd_ns "t_rcd_ns";
  pos t.t_rp_ns "t_rp_ns";
  pos t.t_wr_ns "t_wr_ns";
  pos t.t_burst_ns "t_burst_ns";
  check c (t.t_refi_ns > t.t_rfc_ns) ~owner:(owner "t_refi_ns")
    ~detail:"refresh interval must exceed the refresh cycle time"

let timing ~name t = with_collector (fun c -> timing_c c ~name t)

(* --- core model --------------------------------------------------------- *)

let core_c c (p : Core_params.t) =
  let owner field = Printf.sprintf "Core.%s" field in
  check c (p.clock_ghz > 0.) ~owner:(owner "clock_ghz")
    ~detail:"clock must be positive";
  check c (p.l1_hit_cycles >= 1) ~owner:(owner "l1_hit_cycles")
    ~detail:"an L1 hit takes at least one cycle";
  check c
    (p.l2_hit_cycles > p.l1_hit_cycles)
    ~owner:(owner "l2_hit_cycles")
    ~detail:
      (Printf.sprintf
         "latency hierarchy not monotone: L2 hit (%d cy) <= L1 hit (%d cy)"
         p.l2_hit_cycles p.l1_hit_cycles);
  check c (is_pow2 p.page_bytes) ~owner:(owner "page_bytes")
    ~detail:"page size must be a power of two";
  check c (p.tlb_entries > 0) ~owner:(owner "tlb_entries")
    ~detail:"TLB must have entries";
  check c
    (p.rob_entries >= p.issue_width)
    ~owner:(owner "rob_entries")
    ~detail:"ROB cannot be narrower than the issue width";
  check c
    (p.miss_buffer >= p.effective_mlp)
    ~owner:(owner "miss_buffer")
    ~detail:"miss buffer cannot sustain the claimed MLP"

let core p = with_collector (fun c -> core_c c p)

(* The cross-layer check: every modelled memory technology must be slower
   to reach than the last cache level, or the simulated hierarchy inverts. *)
let hierarchy_c c (core : Core_params.t) (techs : Technology.t list) =
  List.iter
    (fun (t : Technology.t) ->
      let read_cycles = t.read_latency_ns *. core.clock_ghz in
      check c
        (read_cycles > float_of_int core.l2_hit_cycles)
        ~owner:(Printf.sprintf "Technology.%s.read_latency_ns" t.name)
        ~detail:
          (Printf.sprintf
             "memory read (%.1f cy) not slower than an L2 hit (%d cy)"
             read_cycles core.l2_hit_cycles))
    techs

(* --- per-app workload config -------------------------------------------- *)

let app_c c (module A : Workload.APP) =
  let owner field = Printf.sprintf "App.%s.%s" A.name field in
  check c (A.name <> "") ~owner:"App.name" ~detail:"empty app name";
  check c
    (A.name = String.lowercase_ascii A.name)
    ~owner:(owner "name")
    ~detail:"app names are lowercase (CLI lookup lowercases its argument)";
  check c
    (A.paper_footprint_mb >= 0.)
    ~owner:(owner "paper_footprint_mb")
    ~detail:
      "the paper's reference footprint cannot be negative (0 marks an app \
       beyond the paper's set)";
  check c (A.description <> "") ~owner:(owner "description")
    ~detail:"empty description";
  check c
    (A.input_description <> "")
    ~owner:(owner "input_description")
    ~detail:"empty input description"

let app a = with_collector (fun c -> app_c c a)

(* --- everything the simulators ship with -------------------------------- *)

let all ?app () =
  with_collector (fun c ->
      List.iter (technology_c c) Technology.all;
      caches_c c ~l1d:Cache_params.paper_l1d ~l1i:Cache_params.paper_l1i
        ~l2:Cache_params.paper_l2;
      org_c c Org.paper;
      List.iter
        (fun (t : Technology.t) ->
          timing_c c ~name:t.name (Timing.of_tech t ~org:Org.paper))
        Technology.paper_set;
      core_c c Core_params.paper;
      hierarchy_c c Core_params.paper Technology.paper_set;
      match app with Some a -> app_c c a | None -> ())
