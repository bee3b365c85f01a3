module Org = Nvsc_dramsim.Org
module Timing = Nvsc_dramsim.Timing
module Power_params = Nvsc_dramsim.Power_params
module Controller = Nvsc_dramsim.Controller
module Memory_system = Nvsc_dramsim.Memory_system
module Tech = Nvsc_nvram.Technology
module Access = Nvsc_memtrace.Access

let ddr3 = Tech.get Tech.DDR3
let pcram = Tech.get Tech.PCRAM
let sttram = Tech.get Tech.STTRAM

let test_timing_derivation () =
  let t = Timing.of_tech pcram ~org:Org.paper in
  Alcotest.(check (float 1e-9)) "tRCD = read latency" 20. t.Timing.t_rcd_ns;
  Alcotest.(check (float 1e-9)) "tWR = write latency" 100. t.Timing.t_wr_ns;
  Alcotest.(check (float 1e-9)) "burst: 8 beats at 0.625ns" 5. t.Timing.t_burst_ns;
  let d = Timing.of_tech ddr3 ~org:Org.paper in
  Alcotest.(check (float 1e-9)) "same peripheral tCAS" t.Timing.t_cas_ns
    d.Timing.t_cas_ns

let test_row_miss_penalty () =
  let t = Timing.of_tech ddr3 ~org:Org.paper in
  Alcotest.(check (float 1e-9)) "no open row: tRCD only" 10.
    (Timing.row_miss_penalty_ns t ~had_open_row:false);
  Alcotest.(check (float 1e-9)) "open row: tRP + tRCD" 15.
    (Timing.row_miss_penalty_ns t ~had_open_row:true)

let test_power_params () =
  let d = Power_params.of_tech ddr3 ~org:Org.paper in
  let p = Power_params.of_tech pcram ~org:Org.paper in
  Alcotest.(check bool) "DRAM refreshes" true (d.Power_params.e_refresh_nj > 0.);
  Alcotest.(check (float 1e-9)) "NVRAM refresh is zero (paper §IV)" 0.
    p.Power_params.e_refresh_nj;
  Alcotest.(check (float 1e-9)) "shared background power"
    d.Power_params.p_background_w p.Power_params.p_background_w;
  Alcotest.(check (float 1e-9)) "PCRAM burst currents from the paper" 0.04
    p.Power_params.burst_read_current_a;
  Alcotest.(check (float 1e-9)) "PCRAM write current" 0.15
    p.Power_params.burst_write_current_a;
  (* energy helpers *)
  Alcotest.(check (float 1e-9)) "read energy = V*I*t" (1.5 *. 0.04 *. 5.)
    (Power_params.burst_read_energy_nj p ~t_burst_ns:5.)

(* Simulate a whole materialised trace on a fresh controller. *)
let run_trace ~tech trace =
  let c = Controller.create ~tech () in
  List.iter (Controller.submit c) trace;
  Controller.stats c

let seq_reads n = List.init n (fun i -> Access.read ~addr:(i * 64) ~size:64)
let seq_writes n = List.init n (fun i -> Access.write ~addr:(i * 64) ~size:64)

let test_row_hits_on_stream () =
  let s = run_trace ~tech:ddr3 (seq_reads 256) in
  (* two 128-line rows -> 2 misses, 254 hits *)
  Alcotest.(check int) "row misses" 2 s.Controller.row_misses;
  Alcotest.(check int) "row hits" 254 s.Controller.row_hits;
  Alcotest.(check int) "activations" 2 s.Controller.activations

let test_counts () =
  let s = run_trace ~tech:ddr3 (seq_reads 10 @ seq_writes 5) in
  Alcotest.(check int) "accesses" 15 s.Controller.accesses;
  Alcotest.(check int) "reads" 10 s.Controller.reads;
  Alcotest.(check int) "writes" 5 s.Controller.writes;
  Alcotest.(check bool) "hit rate" true (s.Controller.row_hit_rate > 0.5)

let test_elapsed_monotone_with_latency () =
  let trace = seq_writes 2000 in
  let t_ddr = (run_trace ~tech:ddr3 trace).Controller.elapsed_ns in
  let t_stt = (run_trace ~tech:sttram trace).Controller.elapsed_ns in
  let t_pcm = (run_trace ~tech:pcram trace).Controller.elapsed_ns in
  Alcotest.(check bool) "DDR3 <= STTRAM" true (t_ddr <= t_stt);
  Alcotest.(check bool) "STTRAM < PCRAM (write recovery)" true (t_stt < t_pcm)

let test_refresh_only_dram () =
  (* run long enough to cross several tREFI windows *)
  let trace = seq_reads 20000 in
  let s_d = run_trace ~tech:ddr3 trace in
  let s_p = run_trace ~tech:pcram trace in
  Alcotest.(check bool) "DRAM refreshed" true (s_d.Controller.refreshes > 0);
  Alcotest.(check int) "NVRAM never refreshes" 0 s_p.Controller.refreshes;
  Alcotest.(check (float 1e-9)) "no NVRAM refresh energy" 0.
    s_p.Controller.refresh_energy_nj

let test_energy_additivity () =
  let s = run_trace ~tech:ddr3 (seq_reads 5000) in
  Alcotest.(check (float 1e-3)) "components sum to total"
    s.Controller.total_energy_nj
    (s.Controller.burst_energy_nj +. s.Controller.act_pre_energy_nj
    +. s.Controller.refresh_energy_nj +. s.Controller.background_energy_nj);
  Alcotest.(check bool) "all components non-negative" true
    (s.Controller.burst_energy_nj >= 0.
    && s.Controller.act_pre_energy_nj >= 0.
    && s.Controller.refresh_energy_nj >= 0.
    && s.Controller.background_energy_nj >= 0.)

let test_avg_power_consistency () =
  let s = run_trace ~tech:ddr3 (seq_reads 5000) in
  Alcotest.(check (float 1e-6)) "power = energy / time" s.Controller.avg_power_w
    (s.Controller.total_energy_nj /. s.Controller.elapsed_ns)

let test_latency_percentiles () =
  let s = run_trace ~tech:pcram (seq_writes 2000) in
  Alcotest.(check bool) "percentiles ordered" true
    (s.Controller.p50_latency_ns <= s.Controller.p95_latency_ns
    && s.Controller.p95_latency_ns <= s.Controller.p99_latency_ns);
  Alcotest.(check bool) "positive" true (s.Controller.p50_latency_ns > 0.);
  (* on a write stream with 100ns recovery the tail is far above the
     median's neighbourhood *)
  Alcotest.(check bool) "write-recovery tail" true
    (s.Controller.p99_latency_ns > s.Controller.avg_latency_ns)

let test_window_required_positive () =
  Alcotest.check_raises "window"
    (Invalid_argument "Controller.create: window must be positive") (fun () ->
      ignore (Controller.create ~window:0 ~tech:ddr3 ()))

let test_normalized_power_table6_band () =
  (* a mixed trace with a realistic read/write blend; the Table VI shape:
     every NVRAM saves >= 25%, PCRAM <= STTRAM <= MRAM *)
  let rng = Nvsc_util.Rng.of_int 99 in
  let trace =
    List.init 30_000 (fun i ->
        let addr = ((i * 64) + (64 * 128 * Nvsc_util.Rng.int rng 4)) in
        if Nvsc_util.Rng.bernoulli rng 0.3 then Access.write ~addr ~size:64
        else Access.read ~addr ~size:64)
  in
  let results =
    Memory_system.compare_technologies ~techs:Tech.paper_set
      ~replay:(fun sink -> List.iter (Nvsc_memtrace.Sink.push_access sink) trace)
      ()
  in
  let norm = Memory_system.normalized_power results in
  let get t =
    List.assoc t (List.map (fun ((x : Tech.t), p) -> (x.tech, p)) norm)
  in
  Alcotest.(check (float 1e-9)) "DDR3 baseline" 1.0 (get Tech.DDR3);
  let p = get Tech.PCRAM and s = get Tech.STTRAM and m = get Tech.MRAM in
  Alcotest.(check bool) "PCRAM saves" true (p < 0.75);
  Alcotest.(check bool) "ordering PCRAM <= STTRAM" true (p <= s);
  Alcotest.(check bool) "ordering STTRAM <= MRAM" true (s <= m);
  Alcotest.(check bool) "MRAM saves at least 25%" true (m < 0.78)

let test_normalized_requires_baseline () =
  Alcotest.check_raises "no DDR3"
    (Invalid_argument "Memory_system.normalized_power: no DDR3 baseline")
    (fun () ->
      ignore
        (Memory_system.normalized_power
           [ (pcram, run_trace ~tech:pcram (seq_reads 2)) ]))

let test_latency_positive_prop =
  QCheck.Test.make ~name:"latency and makespan positive on any trace" ~count:20
    QCheck.(list_of_size Gen.(int_range 1 200) (pair (int_range 0 100000) bool))
    (fun evs ->
      let trace =
        List.map
          (fun (l, w) ->
            if w then Access.write ~addr:(l * 64) ~size:64
            else Access.read ~addr:(l * 64) ~size:64)
          evs
      in
      let s = run_trace ~tech:sttram trace in
      s.Controller.elapsed_ns > 0. && s.Controller.avg_latency_ns > 0.
      && s.Controller.row_hits + s.Controller.row_misses
         = s.Controller.accesses)

(* The technology pool ([compare_technologies ~jobs]) must return the
   serial comparison's stats, byte for byte and in input order, over a
   cache-filtered trace with fills, write-backs and straddling lines. *)
let test_power_jobs_identical () =
  let log = Nvsc_memtrace.Trace_log.create () in
  let h =
    Nvsc_cachesim.Hierarchy.create ~sink:(Nvsc_memtrace.Trace_log.sink log) ()
  in
  let n = 2000 in
  let batch = Nvsc_memtrace.Sink.Batch.create n in
  let lcg = ref 12345 in
  for i = 0 to n - 1 do
    lcg := (!lcg * 1103515245) + 12345;
    let addr =
      if i land 3 = 0 then 0x10000 + (i * 68)
      else 0x400000 + (((!lcg lsr 7) land 0xFFFFFF) land 0x3FFFC0) + (i land 63)
    in
    let op = if i land 7 < 3 then Access.Write else Access.Read in
    Nvsc_memtrace.Sink.Batch.set batch i ~addr ~size:(1 lsl (i land 3)) ~op
  done;
  Nvsc_cachesim.Hierarchy.consume h batch ~first:0 ~n;
  Nvsc_cachesim.Hierarchy.drain h;
  let compare ?jobs () =
    Memory_system.compare_technologies ?jobs ~techs:Tech.paper_set
      ~replay:(Nvsc_memtrace.Trace_log.replay_batch log) ()
  in
  let serial = compare () in
  List.iter2
    (fun ((ts : Tech.t), (ss : Controller.stats)) ((tp : Tech.t), sp) ->
      Alcotest.(check string) "tech order" ts.name tp.name;
      Alcotest.(check bool) (ts.name ^ ": stats identical") true (ss = sp))
    serial (compare ~jobs:3 ())

let suite =
  [
    Alcotest.test_case "timing derivation" `Quick test_timing_derivation;
    Alcotest.test_case "row miss penalty" `Quick test_row_miss_penalty;
    Alcotest.test_case "power parameters" `Quick test_power_params;
    Alcotest.test_case "row hits on stream" `Quick test_row_hits_on_stream;
    Alcotest.test_case "access counts" `Quick test_counts;
    Alcotest.test_case "makespan grows with latency" `Quick
      test_elapsed_monotone_with_latency;
    Alcotest.test_case "refresh only for DRAM" `Quick test_refresh_only_dram;
    Alcotest.test_case "energy additivity" `Quick test_energy_additivity;
    Alcotest.test_case "power = energy/time" `Quick test_avg_power_consistency;
    Alcotest.test_case "latency percentiles" `Quick test_latency_percentiles;
    Alcotest.test_case "window validation" `Quick test_window_required_positive;
    Alcotest.test_case "Table VI band on synthetic trace" `Quick
      test_normalized_power_table6_band;
    Alcotest.test_case "baseline required" `Quick test_normalized_requires_baseline;
    QCheck_alcotest.to_alcotest test_latency_positive_prop;
    Alcotest.test_case "technology-parallel power stage is byte-identical"
      `Quick test_power_jobs_identical;
  ]
