(* Differential tests pinning the optimized cachesim kernels to the
   straightforward reference implementations in test/oracle/.  The
   optimizations (mask/shift indexing, encoded-int effects, fused
   find-or-victim scan, resident-line memos, the hierarchy's repeated-line
   fast path) must be observationally invisible: identical statistics,
   identical evictions and identical sink output on identical streams,
   across geometries including direct-mapped, non-power-of-two set counts
   (built by direct record construction — [Cache_params.make] rejects
   them) and line-straddling accesses.  The DRAM controller and the
   performance model are pinned the same way to their reference models. *)

module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Cache_params = Nvsc_cachesim.Cache_params
module Cache = Nvsc_cachesim.Cache
module Hierarchy = Nvsc_cachesim.Hierarchy
module OC = Nvsc_oracle.Oracle_cache
module OH = Nvsc_oracle.Oracle_hierarchy
module Org = Nvsc_dramsim.Org
module AM = Nvsc_dramsim.Address_mapping
module Controller = Nvsc_dramsim.Controller
module OCtl = Nvsc_oracle.Oracle_controller
module Tech = Nvsc_nvram.Technology
module Core_params = Nvsc_cpusim.Core_params
module PM = Nvsc_cpusim.Perf_model
module OPM = Nvsc_oracle.Oracle_perf_model

(* --- geometries ------------------------------------------------------- *)

let tiny_l1 =
  Cache_params.make ~name:"tiny-l1" ~size_bytes:(16 * 64 * 2) ~associativity:2
    ~write_miss:Cache_params.No_write_allocate ()

let tiny_l2 =
  Cache_params.make ~name:"tiny-l2" ~size_bytes:(64 * 64 * 4) ~associativity:4
    ~write_miss:Cache_params.Write_allocate ()

let direct_mapped_l1 =
  Cache_params.make ~name:"dm-l1" ~size_bytes:(32 * 64) ~associativity:1
    ~write_miss:Cache_params.Write_allocate ()

let direct_mapped_l2 =
  Cache_params.make ~name:"dm-l2" ~size_bytes:(128 * 64) ~associativity:1
    ~write_miss:Cache_params.Write_allocate ()

(* Non-power-of-two set counts: 3 and 6 sets.  Built directly because
   [Cache_params.make] rejects them; [Cache] must fall back to its guarded
   div/mod indexing path. *)
let odd_l1 =
  {
    Cache_params.name = "np2-l1";
    size_bytes = 3 * 64 * 2;
    associativity = 2;
    line_bytes = 64;
    write_miss = Cache_params.No_write_allocate;
  }

let odd_l2 =
  {
    Cache_params.name = "np2-l2";
    size_bytes = 6 * 64 * 4;
    associativity = 4;
    line_bytes = 64;
    write_miss = Cache_params.Write_allocate;
  }

let geometries =
  [
    ("paper", Cache_params.paper_l1d, Cache_params.paper_l2);
    ("tiny", tiny_l1, tiny_l2);
    ("direct-mapped", direct_mapped_l1, direct_mapped_l2);
    ("non-pow2-sets", odd_l1, odd_l2);
  ]

(* --- harness ---------------------------------------------------------- *)

let collecting_sink () =
  let acc = ref [] in
  let sink =
    Sink.create ~capacity:13 (fun b ~first ~n ->
        for i = first to first + n - 1 do
          acc :=
            (Sink.Batch.addr b i, Sink.Batch.size b i, Sink.Batch.is_write b i)
            :: !acc
        done)
  in
  (sink, acc)

let cache_stats_equal (c : Cache.t) (o : OC.t) =
  Cache.read_hits c = OC.read_hits o
  && Cache.read_misses c = OC.read_misses o
  && Cache.write_hits c = OC.write_hits o
  && Cache.write_misses c = OC.write_misses o
  && Cache.evictions c = OC.evictions o
  && Cache.dirty_evictions c = OC.dirty_evictions o
  && Cache.resident_lines c = OC.resident_lines o

(* Run one stream through both hierarchies (interleaved, so any divergence
   is caught at the first differing reference) and compare everything
   observable: per-level stats, traffic counters and the exact memory
   trace each pushed into its sink. *)
let check_stream ~l1d ~l2 stream =
  let sink_h, out_h = collecting_sink () in
  let sink_o, out_o = collecting_sink () in
  let h = Hierarchy.create ~l1d ~l2 ~sink:sink_h () in
  let o = OH.create ~l1d ~l2 ~sink:sink_o () in
  List.iter
    (fun (addr, size, op) ->
      Hierarchy.access_raw h ~addr ~size ~op;
      OH.access_raw o ~addr ~size ~op)
    stream;
  Hierarchy.drain h;
  OH.drain o;
  Hierarchy.accesses h = OH.accesses o
  && Hierarchy.memory_reads h = OH.memory_reads o
  && Hierarchy.memory_writes h = OH.memory_writes o
  && cache_stats_equal (Hierarchy.l1d h) (OH.l1d o)
  && cache_stats_equal (Hierarchy.l2 h) (OH.l2 o)
  && !out_h = !out_o

(* --- property: random streams, all geometries ------------------------- *)

let gen_ref =
  QCheck.Gen.(
    let* addr = int_range 0 ((1 lsl 20) - 1) in
    (* sizes up to 3 lines: plenty of straddling accesses *)
    let* size = oneofl [ 1; 2; 4; 8; 16; 64; 100; 192 ] in
    let* w = bool in
    return (addr, size, if w then Access.Write else Access.Read))

let arbitrary_stream =
  QCheck.make QCheck.Gen.(list_size (int_range 200 600) gen_ref)

let hierarchy_differential_tests =
  List.map
    (fun (name, l1d, l2) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "hierarchy matches oracle (%s)" name)
        ~count:30 arbitrary_stream
        (fun stream -> check_stream ~l1d ~l2 stream))
    geometries

(* Boundary-hugging addresses: every access starts within a word of a line
   edge, so the straddling split path is exercised constantly. *)
let straddle_stream =
  QCheck.Gen.(
    let* n = int_range 300 800 in
    list_size (return n)
      (let* line = int_range 0 4095 in
       let* off = int_range 56 63 in
       let* size = int_range 2 140 in
       let* w = bool in
       return ((line * 64) + off, size, if w then Access.Write else Access.Read)))

let straddle_differential =
  QCheck.Test.make ~name:"hierarchy matches oracle (line-straddling)"
    ~count:30
    (QCheck.make straddle_stream)
    (fun stream -> check_stream ~l1d:tiny_l1 ~l2:tiny_l2 stream)

(* --- property: single cache level, per-access effect equality ---------- *)

let effect_equal line (e : Cache.Effect.t) (r : OC.effect_) =
  Cache.Effect.hit e = r.OC.hit
  && Cache.Effect.fills e = (r.OC.fill = Some line)
  && Cache.Effect.forwards_write e = (r.OC.forward_write = Some line)
  && (match r.OC.writeback with
     | Some l ->
       Cache.Effect.has_writeback e && Cache.Effect.writeback_line e = l
     | None -> not (Cache.Effect.has_writeback e))

let cache_params_pool =
  [ Cache_params.paper_l1d; Cache_params.paper_l2; tiny_l1; tiny_l2;
    direct_mapped_l1; odd_l1; odd_l2 ]

let cache_differential =
  QCheck.Test.make ~name:"cache effects match oracle per access" ~count:60
    QCheck.(
      make
        Gen.(
          let* p = oneofl cache_params_pool in
          let* ops =
            list_size (int_range 200 500)
              (pair (int_range 0 1023) bool)
          in
          return (p, ops)))
    (fun (p, ops) ->
      let c = Cache.create p and o = OC.create p in
      List.for_all
        (fun (line, is_write) ->
          let e, r =
            if is_write then (Cache.write c ~line, OC.write o ~line)
            else (Cache.read c ~line, OC.read o ~line)
          in
          effect_equal line e r
          && Cache.probe c ~line = OC.probe o ~line
          && Cache.is_dirty c ~line = OC.is_dirty o ~line)
        ops
      && cache_stats_equal c o)

(* --- deterministic long streams: >=10k refs per geometry --------------- *)

(* A fixed LCG keeps the big runs reproducible and independent of qcheck's
   shrinking; 20_000 references per geometry, batch-consumed through
   [Hierarchy.consume] so the unchecked batch branch is the one under
   test. *)
let lcg_stream n =
  let state = ref 0x5DEECE66D in
  let next () =
    state := ((!state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    !state lsr 16
  in
  List.init n (fun _ ->
      let addr = next () land ((1 lsl 22) - 1) in
      let size = 1 + (next () mod 160) in
      let op = if next () land 1 = 0 then Access.Write else Access.Read in
      (addr, size, op))

let test_long_streams () =
  let stream = lcg_stream 20_000 in
  List.iter
    (fun (name, l1d, l2) ->
      let sink_h, out_h = collecting_sink () in
      let sink_o, out_o = collecting_sink () in
      let h = Hierarchy.create ~l1d ~l2 ~sink:sink_h () in
      let o = OH.create ~l1d ~l2 ~sink:sink_o () in
      (* feed the optimized side through its batch consumer *)
      let feed =
        Sink.create ~capacity:4096 (fun b ~first ~n ->
            Hierarchy.consume h b ~first ~n)
      in
      List.iter
        (fun (addr, size, op) ->
          Sink.push feed ~addr ~size ~op;
          OH.access_raw o ~addr ~size ~op)
        stream;
      Sink.flush feed;
      Hierarchy.drain h;
      OH.drain o;
      Alcotest.(check int)
        (name ^ ": accesses") (OH.accesses o) (Hierarchy.accesses h);
      Alcotest.(check int)
        (name ^ ": memory reads") (OH.memory_reads o)
        (Hierarchy.memory_reads h);
      Alcotest.(check int)
        (name ^ ": memory writes") (OH.memory_writes o)
        (Hierarchy.memory_writes h);
      Alcotest.(check bool)
        (name ^ ": L1 stats") true
        (cache_stats_equal (Hierarchy.l1d h) (OH.l1d o));
      Alcotest.(check bool)
        (name ^ ": L2 stats") true
        (cache_stats_equal (Hierarchy.l2 h) (OH.l2 o));
      Alcotest.(check bool) (name ^ ": memory trace") true (!out_h = !out_o))
    geometries

(* --- zero-allocation hit paths ----------------------------------------- *)

(* 10_000 alternating read/write hits on a resident line: any per-access
   heap allocation would show up as >=20_000 minor words.  The small slack
   absorbs the boxed floats [Gc.minor_words] itself returns. *)
let test_hit_path_allocation_free () =
  let c = Cache.create Cache_params.paper_l1d in
  ignore (Cache.write c ~line:7);
  ignore (Cache.read c ~line:7);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Cache.read c ~line:7);
    ignore (Cache.write c ~line:7)
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16. then
    Alcotest.failf "cache hit path allocated: %.0f minor words / 20k accesses"
      dw

let test_miss_path_allocation_free () =
  let c = Cache.create tiny_l1 in
  ignore (Cache.read c ~line:0);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    (* distinct lines: every access misses, evicts and (on writes) walks
       the write-back path *)
    ignore (Cache.write c ~line:(i * 17));
    ignore (Cache.read c ~line:(i * 31))
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16. then
    Alcotest.failf "cache miss path allocated: %.0f minor words / 20k accesses"
      dw

(* --- DRAM controller against the reference controller ------------------ *)

(* The optimized controller (shift-and-mask decode, exact latency
   histogram) must report the reference controller's stats bit for bit.
   Floats are compared by their IEEE bits, so a percentile that merely
   rounds the same way would still fail. *)
let stats_mismatches (s : Controller.stats) (o : OCtl.stats) =
  let bits = Int64.bits_of_float in
  let ints =
    [
      ("accesses", s.accesses, o.accesses);
      ("reads", s.reads, o.reads);
      ("writes", s.writes, o.writes);
      ("row_hits", s.row_hits, o.row_hits);
      ("row_misses", s.row_misses, o.row_misses);
      ("activations", s.activations, o.activations);
      ("refreshes", s.refreshes, o.refreshes);
    ]
  and floats =
    [
      ("elapsed_ns", s.elapsed_ns, o.elapsed_ns);
      ("burst_energy_nj", s.burst_energy_nj, o.burst_energy_nj);
      ("act_pre_energy_nj", s.act_pre_energy_nj, o.act_pre_energy_nj);
      ("refresh_energy_nj", s.refresh_energy_nj, o.refresh_energy_nj);
      ("background_energy_nj", s.background_energy_nj, o.background_energy_nj);
      ("total_energy_nj", s.total_energy_nj, o.total_energy_nj);
      ("avg_power_w", s.avg_power_w, o.avg_power_w);
      ("avg_latency_ns", s.avg_latency_ns, o.avg_latency_ns);
      ("p50_latency_ns", s.p50_latency_ns, o.p50_latency_ns);
      ("p95_latency_ns", s.p95_latency_ns, o.p95_latency_ns);
      ("p99_latency_ns", s.p99_latency_ns, o.p99_latency_ns);
      ("bandwidth_gbs", s.bandwidth_gbs, o.bandwidth_gbs);
      ("row_hit_rate", s.row_hit_rate, o.row_hit_rate);
    ]
  in
  List.filter_map
    (fun (n, a, b) ->
      if a = b then None else Some (Printf.sprintf "%s: %d vs %d" n a b))
    ints
  @ List.filter_map
      (fun (n, a, b) ->
        if Int64.equal (bits a) (bits b) then None
        else Some (Printf.sprintf "%s: %h vs %h" n a b))
      floats

type dram_config = {
  org : Org.t;
  scheme : AM.scheme;
  window : int;
  policy : [ `Open | `Closed ];
  lookahead : int option; (* [Some d] = FR-FCFS over [d] *)
  tech : Tech.t;
}

let dram_config_name c =
  Printf.sprintf
    "%dr x %db x %drows, %d lines/row, %dB lines, %s, w%d, %s, %s, %s"
    c.org.ranks c.org.banks c.org.rows (Org.lines_per_row c.org)
    c.org.line_bytes (AM.scheme_name c.scheme) c.window
    (match c.policy with `Open -> "open" | `Closed -> "closed")
    (match c.lookahead with
    | None -> "fcfs"
    | Some d -> Printf.sprintf "fr-fcfs %d" d)
    c.tech.Tech.name

(* Run one stream through both controllers and list every stats field
   that differs. *)
let dram_mismatches c stream =
  let ctl =
    Controller.create ~org:c.org ~scheme:c.scheme ~window:c.window
      ~row_policy:
        (match c.policy with
        | `Open -> Controller.Open_page
        | `Closed -> Controller.Closed_page)
      ~scheduler:
        (match c.lookahead with
        | None -> Controller.Fcfs
        | Some d -> Controller.Fr_fcfs d)
      ~tech:c.tech ()
  and ora =
    OCtl.create ~org:c.org ~scheme:c.scheme ~window:c.window
      ~row_policy:
        (match c.policy with
        | `Open -> OCtl.Open_page
        | `Closed -> OCtl.Closed_page)
      ~scheduler:
        (match c.lookahead with None -> OCtl.Fcfs | Some d -> OCtl.Fr_fcfs d)
      ~tech:c.tech ()
  in
  List.iter
    (fun (addr, op) ->
      Controller.submit_ref ctl ~addr ~op;
      OCtl.submit_ref ora ~addr ~op)
    stream;
  stats_mismatches (Controller.stats ctl) (OCtl.stats ora)

let pow2_upto k = QCheck.Gen.map (fun e -> 1 lsl e) (QCheck.Gen.int_range 0 k)

let gen_org =
  QCheck.Gen.(
    let* ranks = pow2_upto 3 and* banks = pow2_upto 4 and* rows = pow2_upto 6 in
    let* line_bytes = oneofl [ 32; 64; 128 ] in
    let* bus_width_bits = oneofl [ 32; 64 ] in
    (* a row holds 1 to 32 lines *)
    let* lines_per_row = pow2_upto 5 in
    let cols = lines_per_row * line_bytes * 8 / bus_width_bits in
    return (Org.make ~ranks ~banks ~rows ~cols ~bus_width_bits ~line_bytes ()))

let gen_dram_config =
  QCheck.Gen.(
    let* org = gen_org in
    let* scheme = oneofl AM.all_schemes in
    let* window = oneofl [ 1; 2; 8 ] in
    let* policy = oneofl [ `Open; `Closed ] in
    let* lookahead = oneofl [ None; Some 4 ] in
    let* tech = oneofl Tech.paper_set in
    return { org; scheme; window; policy; lookahead; tech })

(* Addresses cluster on a few rows (row hits, bank conflicts) and also
   reach up to four times the capacity (wraparound); every byte offset
   within a line occurs. *)
let gen_dram_stream org =
  QCheck.Gen.(
    let capacity = Org.capacity_bytes org in
    let row = Org.row_bytes org in
    let hot = List.init 4 (fun k -> (k * 7 * row) mod capacity) in
    list_size (int_range 1 600)
      (let* addr =
         frequency
           [
             ( 3,
               map2 (fun h off -> h + off) (oneofl hot)
                 (int_range 0 (row - 1)) );
             (2, int_range 0 ((4 * capacity) - 1));
           ]
       in
       let* w = bool in
       return (addr, if w then Access.Write else Access.Read)))

let dram_differential =
  QCheck.Test.make ~name:"controller matches reference controller" ~count:300
    (QCheck.make
       ~print:(fun (c, stream) ->
         Printf.sprintf "%s; %d txns" (dram_config_name c) (List.length stream))
       QCheck.Gen.(
         let* c = gen_dram_config in
         let* stream = gen_dram_stream c.org in
         return (c, stream)))
    (fun (c, stream) ->
      match dram_mismatches c stream with
      | [] -> true
      | ms -> QCheck.Test.fail_report (String.concat "; " ms))

(* Refresh-heavy: under the default scheme the 20k transactions span
   about 13 DDR3 refresh intervals on each of 16 ranks (208 refreshes,
   one per ~100 transactions), and every scheme, row policy and
   scheduler is compared. *)
let test_dram_refresh_heavy () =
  let stream = List.map (fun (addr, _, op) -> (addr, op)) (lcg_stream 20_000) in
  let ddr3 = Tech.get Tech.DDR3 in
  List.iter
    (fun scheme ->
      List.iter
        (fun policy ->
          List.iter
            (fun lookahead ->
              let c =
                { org = Org.paper; scheme; window = 8; policy; lookahead;
                  tech = ddr3 }
              in
              match dram_mismatches c stream with
              | [] -> ()
              | ms ->
                Alcotest.failf "%s: %s" (dram_config_name c)
                  (String.concat "; " ms))
            [ None; Some 4 ])
        [ `Open; `Closed ])
    AM.all_schemes;
  let c = Controller.create ~tech:ddr3 () in
  List.iter (fun (addr, op) -> Controller.submit_ref c ~addr ~op) stream;
  let s = Controller.stats c in
  if s.refreshes < 100 then
    Alcotest.failf "stream not refresh-heavy: %d refreshes" s.refreshes

(* Percentile edge cases: one and two transactions, every latency equal
   (window 1 with closed pages serialises reads at one fixed latency),
   and 101 transactions, where p * (n - 1) is integral for all three. *)
let test_dram_percentile_edges () =
  let reads n = List.init n (fun i -> (i * 64, Access.Read)) in
  let pcram = Tech.get Tech.PCRAM in
  let base =
    { org = Org.paper; scheme = AM.Row_bank_rank_col; window = 8;
      policy = `Open; lookahead = None; tech = pcram }
  in
  let check name c stream =
    match dram_mismatches c stream with
    | [] -> ()
    | ms -> Alcotest.failf "%s: %s" name (String.concat "; " ms)
  in
  check "n = 0" base [];
  check "n = 1" base (reads 1);
  check "n = 2" base (reads 2);
  check "n = 2, write then read" base [ (0, Access.Write); (64, Access.Read) ];
  check "n = 101" base (reads 101);
  check "n = 101, mixed" base
    (List.init 101 (fun i ->
         ( (i * 8192) + ((i land 3) * 64),
           if i mod 3 = 0 then Access.Write else Access.Read )));
  let serial = { base with window = 1; policy = `Closed } in
  check "all equal" serial (reads 500);
  let c =
    Controller.create ~window:1 ~row_policy:Controller.Closed_page ~tech:pcram
      ()
  in
  List.iter (fun (addr, op) -> Controller.submit_ref c ~addr ~op) (reads 500);
  let s = Controller.stats c in
  Alcotest.(check (float 0.))
    "all equal: p50 = mean" s.avg_latency_ns s.p50_latency_ns;
  Alcotest.(check (float 0.))
    "all equal: p99 = p50" s.p50_latency_ns s.p99_latency_ns

(* The FCFS submit path allocates nothing once the histogram holds the
   stream's few distinct latencies: any boxed float (a latency hashed
   through a boxed Int64, or passed to an out-of-line call) would show up
   as >= 20_000 minor words.  PCRAM never refreshes, so the refresh
   catch-up, which is allowed to allocate, stays out of the count. *)
let test_dram_submit_allocation_free () =
  let c = Controller.create ~tech:(Tech.get Tech.PCRAM) () in
  let pass () =
    for i = 0 to 19_999 do
      Controller.submit_ref c ~addr:(i * 64 * 17)
        ~op:(if i land 3 = 0 then Access.Write else Access.Read)
    done
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let dw = Gc.minor_words () -. w0 in
  if dw > 16. then
    Alcotest.failf
      "controller submit path allocated: %.0f minor words / 20k txns" dw

(* --- performance model: one classifier, N ledgers ----------------------- *)

(* One [Perf_model] with N ledgers must report, for each ledger, exactly
   what the one-latency reference model reports for that latency, bit for
   bit.  Each ledger posts its writes or not independently, so most sets
   mix both write models, as [Sensitivity.run]'s do.  Streams mix the
   event kinds the ledgers see: unit-stride sweeps (covered misses), a hot
   set that outgrows L1 but not L2 (L2 hits), scattered far references
   (TLB misses, demand misses), instruction gaps up to twice the ROB reach
   (cluster closes) and line-straddling sizes. *)

type perf_event = Instrs of int | Ref of int * int * Access.op

type perf_config = {
  pm_l1d : Cache_params.t;
  pm_l2 : Cache_params.t;
  params : Core_params.t;
  wb_entries : int;
  latencies : PM.latency list;
}

let gen_perf_config =
  QCheck.Gen.(
    let* pm_l1d, pm_l2 =
      oneofl
        [ (Cache_params.paper_l1d, Cache_params.paper_l2); (tiny_l1, tiny_l2) ]
    in
    let* effective_mlp = int_range 1 8 in
    let* rob_entries = int_range 8 256 in
    let* tlb_entries = int_range 1 64 in
    let* issue_width = oneofl [ 1; 3; 4; 6 ] in
    let* l2_hit_cycles = int_range 2 15 in
    let* wb_entries = int_range 1 16 in
    let* n = int_range 1 8 in
    let latency_ns =
      frequency
        [
          ( 1,
            oneofl
              (List.map (fun (t : Tech.t) -> t.perf_sim_latency_ns) Tech.all) );
          (2, float_range 0.5 2000.);
        ]
    in
    let* latencies =
      list_size (return n)
        (let* mem_latency_ns = latency_ns in
         let* w = latency_ns in
         let* posted = bool in
         return
           {
             PM.mem_latency_ns;
             mem_write_latency_ns = (if posted then Some w else None);
           })
    in
    return
      {
        pm_l1d;
        pm_l2;
        params =
          Core_params.make ~effective_mlp ~rob_entries ~tlb_entries
            ~issue_width ~l2_hit_cycles ();
        wb_entries;
        latencies;
      })

let gen_perf_stream (params : Core_params.t) =
  QCheck.Gen.(
    let op write_share =
      map
        (fun x -> if x < write_share then Access.Write else Access.Read)
        (float_bound_exclusive 1.)
    in
    let segment write_share =
      frequency
        [
          ( 3,
            (* a unit-stride sweep *)
            let* start = int_range 0 (1 lsl 20) in
            let* len = int_range 4 80 in
            let* gap = int_range 0 12 in
            let* ops = list_size (return len) (op write_share) in
            return
              (List.concat
                 (List.mapi
                    (fun i o -> [ Instrs gap; Ref ((start + i) * 64, 8, o) ])
                    ops)) );
          ( 3,
            (* a 64 KiB hot set *)
            list_size (int_range 4 60)
              (let* line = int_range 0 1023 in
               let* o = op write_share in
               return (Ref ((1 lsl 30) + (line * 64), 8, o))) );
          ( 2,
            (* scattered far references, one page each *)
            list_size (int_range 1 12)
              (let* page = int_range 0 (1 lsl 18) in
               let* off = int_range 0 4095 in
               let* o = op write_share in
               return (Ref ((page * 4096) + off, 8, o))) );
          ( 2,
            (* line straddles *)
            list_size (int_range 1 10)
              (let* line = int_range 0 (1 lsl 16) in
               let* off = int_range 56 63 in
               let* size = int_range 2 140 in
               let* o = op write_share in
               return (Ref ((line * 64) + off, size, o))) );
          ( 2,
            map (fun n -> [ Instrs n ]) (int_range 0 (2 * params.rob_entries))
          );
        ]
    in
    let* write_share = float_range 0. 0.8 in
    map List.concat (list_size (int_range 5 60) (segment write_share)))

let perf_report_fields (r : PM.report) =
  let f x = Int64.bits_of_float x in
  ( [ r.instructions; r.mem_instructions; r.l1_hits; r.l2_hits;
      r.mem_accesses; r.miss_clusters; r.tlb_misses ],
    [ f r.cycles; f r.base_cycles; f r.l2_stall_cycles; f r.mem_stall_cycles;
      f r.tlb_stall_cycles; f r.runtime_ns; f r.ipc ] )

let oracle_report_fields (r : OPM.report) =
  perf_report_fields
    {
      PM.instructions = r.instructions;
      mem_instructions = r.mem_instructions;
      cycles = r.cycles;
      base_cycles = r.base_cycles;
      l2_stall_cycles = r.l2_stall_cycles;
      mem_stall_cycles = r.mem_stall_cycles;
      tlb_stall_cycles = r.tlb_stall_cycles;
      runtime_ns = r.runtime_ns;
      ipc = r.ipc;
      l1_hits = r.l1_hits;
      l2_hits = r.l2_hits;
      mem_accesses = r.mem_accesses;
      miss_clusters = r.miss_clusters;
      tlb_misses = r.tlb_misses;
    }

(* The ledger model is fed through its batch consumer (flushed before
   every instruction count, keeping program order); each oracle one
   reference at a time. *)
let perf_ledgers_match c stream =
  let m =
    PM.create_ledgers ~params:c.params ~l1d:c.pm_l1d ~l2:c.pm_l2
      ~write_buffer_entries:c.wb_entries c.latencies
  in
  let oracles =
    List.map
      (fun (l : PM.latency) ->
        OPM.create ~params:c.params ~l1d:c.pm_l1d ~l2:c.pm_l2
          ?mem_write_latency_ns:l.mem_write_latency_ns
          ~write_buffer_entries:c.wb_entries ~mem_latency_ns:l.mem_latency_ns
          ())
      c.latencies
  in
  let feed =
    Sink.create ~capacity:7 (fun b ~first ~n -> PM.consume m b ~first ~n)
  in
  List.iter
    (function
      | Instrs n ->
        Sink.flush feed;
        PM.instructions m n;
        List.iter (fun o -> OPM.instructions o n) oracles
      | Ref (addr, size, op) ->
        Sink.push feed ~addr ~size ~op;
        List.iter (fun o -> OPM.access_raw o ~addr ~size ~op) oracles)
    stream;
  Sink.flush feed;
  List.map perf_report_fields (PM.reports m)
  = List.map (fun o -> oracle_report_fields (OPM.report o)) oracles

let perf_differential =
  QCheck.Test.make ~name:"perf ledgers match one reference model each"
    ~count:100
    (QCheck.make
       ~print:(fun (c, stream) ->
         Printf.sprintf
           "%s, width %d, mlp %d, rob %d, tlb %d, l2 %d, wb %d, latencies \
            [%s]; %d events"
           c.pm_l1d.Cache_params.name c.params.issue_width
           c.params.effective_mlp c.params.rob_entries c.params.tlb_entries
           c.params.l2_hit_cycles c.wb_entries
           (String.concat "; "
              (List.map
                 (fun (l : PM.latency) ->
                   Printf.sprintf "%h/%s" l.mem_latency_ns
                     (match l.mem_write_latency_ns with
                     | Some w -> Printf.sprintf "%h" w
                     | None -> "-"))
                 c.latencies))
           (List.length stream))
       QCheck.Gen.(
         let* c = gen_perf_config in
         let* stream = gen_perf_stream c.params in
         return (c, stream)))
    (fun (c, stream) -> perf_ledgers_match c stream)


let suite =
  [
    Alcotest.test_case "long LCG streams, all geometries (4x20k refs)" `Quick
      test_long_streams;
    Alcotest.test_case "cache hit path is allocation-free" `Quick
      test_hit_path_allocation_free;
    Alcotest.test_case "cache miss path is allocation-free" `Quick
      test_miss_path_allocation_free;
    Alcotest.test_case "controller matches reference, refresh-heavy DDR3"
      `Quick test_dram_refresh_heavy;
    Alcotest.test_case "controller percentile edge cases match reference"
      `Quick test_dram_percentile_edges;
    Alcotest.test_case "controller submit path is allocation-free" `Quick
      test_dram_submit_allocation_free;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      (hierarchy_differential_tests
      @ [ straddle_differential; cache_differential; dram_differential;
          perf_differential ])
