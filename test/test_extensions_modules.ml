(* Tests of the extension substrates: the context's periodic sampling, the
   trace-file format, the DRAM page cache, the checkpoint model, the
   row-buffer policy, and the ASCII plot rendering. *)

module Trace_file = Nvsc_memtrace.Trace_file
module Trace_log = Nvsc_memtrace.Trace_log
module Access = Nvsc_memtrace.Access
module DC = Nvsc_placement.Dram_cache
module CP = Nvsc_placement.Checkpoint
module Tech = Nvsc_nvram.Technology

(* --- sampler ------------------------------------------------------------ *)

let test_ctx_sampling () =
  let ctx = Nvsc_appkit.Ctx.create () in
  Nvsc_appkit.Ctx.set_sampling ctx ~period:2 ~sample_length:1;
  let a = Nvsc_appkit.Farray.global ctx ~name:"g" 8 in
  for i = 0 to 7 do
    ignore (Nvsc_appkit.Farray.get a i)
  done;
  Alcotest.(check int) "half observed" 4 (Nvsc_appkit.Ctx.total_references ctx);
  Alcotest.(check int) "half dropped" 4 (Nvsc_appkit.Ctx.sampled_out ctx)

(* --- trace file ---------------------------------------------------------- *)

let test_trace_file_roundtrip () =
  let log = Trace_log.create () in
  Trace_log.record log (Access.read ~addr:0x1a40 ~size:64);
  Trace_log.record log (Access.write ~addr:0x2000 ~size:64);
  let path = Filename.temp_file "nvsc_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save log path;
      let loaded = Trace_file.load path in
      Alcotest.(check int) "length" 2 (Trace_log.length loaded);
      let a0 = Trace_log.get loaded 0 and a1 = Trace_log.get loaded 1 in
      Alcotest.(check int) "addr 0" 0x1a40 a0.Access.addr;
      Alcotest.(check bool) "read" true (Access.is_read a0);
      Alcotest.(check bool) "write" true (Access.is_write a1))

let test_trace_file_parsing () =
  Alcotest.(check bool) "comment skipped" true
    (Trace_file.parse_record "# comment" = None);
  Alcotest.(check bool) "blank skipped" true (Trace_file.parse_record "  " = None);
  (match Trace_file.parse_record "0x40 P_MEM_WR 7" with
  | Some a ->
    Alcotest.(check int) "addr" 0x40 a.Access.addr;
    Alcotest.(check bool) "op" true (Access.is_write a)
  | None -> Alcotest.fail "expected record");
  (* DRAMSim2 alternate verbs *)
  (match Trace_file.parse_record "0x80 READ 0" with
  | Some a -> Alcotest.(check bool) "READ accepted" true (Access.is_read a)
  | None -> Alcotest.fail "expected record");
  Alcotest.(check bool) "malformed raises" true
    (try
       ignore (Trace_file.parse_record "0x40 BOGUS 7");
       false
     with Failure _ -> true)

(* --- DRAM page cache ------------------------------------------------------ *)

let small_cache () = DC.create ~dram_pages:8 ~associativity:2 ~tech:(Tech.get Tech.PCRAM) ()

let test_dram_cache_hit_path () =
  let dc = small_cache () in
  DC.access dc (Access.read ~addr:0 ~size:64);
  DC.access dc (Access.read ~addr:64 ~size:64);
  let s = DC.stats dc in
  Alcotest.(check int) "one miss, one hit (same page)" 1 s.DC.hits;
  Alcotest.(check int) "fills" 1 s.DC.fills;
  (* miss latency includes the page fill; hit is DRAM-speed *)
  Alcotest.(check bool) "avg latency between hit and miss cost" true
    (s.DC.avg_latency_ns > 10. && s.DC.avg_latency_ns < 400.)

let test_dram_cache_dirty_writeback () =
  let dc = DC.create ~dram_pages:2 ~associativity:1 ~tech:(Tech.get Tech.PCRAM) () in
  DC.access dc (Access.write ~addr:0 ~size:64);
  DC.drain dc;
  let s = DC.stats dc in
  Alcotest.(check int) "writeback on drain" 1 s.DC.dirty_writebacks;
  Alcotest.(check int) "64 NVRAM line writes per page" 64 s.DC.nvram_line_writes

let test_dram_cache_poor_locality_loses () =
  let points =
    Nvsc_core.Extensions.dram_cache_crossover ~accesses:20_000
      ~hot_fractions:[ 0.99; 0.2 ] ()
  in
  match points with
  | [ good; bad ] ->
    Alcotest.(check bool) "high locality wins" true
      good.Nvsc_core.Extensions.dram_cache_wins;
    Alcotest.(check bool) "poor locality loses (paper §II)" false
      bad.Nvsc_core.Extensions.dram_cache_wins;
    Alcotest.(check bool) "hit rates ordered" true
      (good.Nvsc_core.Extensions.hit_rate > bad.Nvsc_core.Extensions.hit_rate)
  | _ -> Alcotest.fail "two points expected"

let test_dram_cache_validation () =
  Alcotest.(check bool) "DRAM backing rejected" true
    (try
       ignore (DC.create ~tech:(Tech.get Tech.DDR3) ());
       false
     with Invalid_argument _ -> true)

(* --- checkpoint model ------------------------------------------------------ *)

let test_checkpoint_times () =
  let pfs = CP.parallel_fs () in
  let nv = CP.nvram_local (Tech.get Tech.PCRAM) in
  let size = 8 * 1024 * 1024 * 1024 in
  let t_pfs = CP.checkpoint_time_s pfs ~size_bytes:size in
  let t_nv = CP.checkpoint_time_s nv ~size_bytes:size in
  Alcotest.(check bool) "NVRAM much faster" true (t_nv < t_pfs /. 4.);
  Alcotest.(check bool) "bus-bound bandwidth" true
    (nv.CP.bandwidth_bytes_per_s <= 12.8e9 +. 1.)

let test_checkpoint_young () =
  let t = CP.young_interval_s ~checkpoint_time_s:100. ~mtbf_s:20_000. in
  Alcotest.(check (float 1e-6)) "young" 2000. t;
  let eff_fast = CP.efficiency ~checkpoint_time_s:1. ~mtbf_s:20_000. in
  let eff_slow = CP.efficiency ~checkpoint_time_s:100. ~mtbf_s:20_000. in
  Alcotest.(check bool) "faster checkpoints, better efficiency" true
    (eff_fast > eff_slow);
  Alcotest.(check bool) "efficiency in range" true
    (eff_fast > 0.9 && eff_slow > 0.5 && eff_fast <= 1.)

let test_checkpoint_validation () =
  Alcotest.(check bool) "volatile rejected" true
    (try
       ignore (CP.nvram_local (Tech.get Tech.DDR3));
       false
     with Invalid_argument _ -> true)

(* --- row policy ------------------------------------------------------------ *)

let test_row_policy () =
  let trace = Trace_log.create () in
  for i = 0 to 999 do
    Trace_log.record trace (Access.read ~addr:(i * 64) ~size:64)
  done;
  match
    Nvsc_core.Extensions.row_policy_ablation trace ~tech:(Tech.get Tech.DDR3)
  with
  | [ (Nvsc_dramsim.Controller.Open_page, op); (Closed_page, cp) ] ->
    Alcotest.(check bool) "open-page row hits on stream" true
      (op.Nvsc_dramsim.Controller.row_hit_rate > 0.9);
    Alcotest.(check (float 1e-9)) "closed-page never hits" 0.
      cp.Nvsc_dramsim.Controller.row_hit_rate;
    Alcotest.(check bool) "open-page faster on stream" true
      (op.Nvsc_dramsim.Controller.elapsed_ns
      <= cp.Nvsc_dramsim.Controller.elapsed_ns)
  | _ -> Alcotest.fail "two policies expected"

(* --- ascii plots ------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_plot_line () =
  let s =
    Nvsc_util.Ascii_plot.line ~title:"t" ~width:20 ~height:5
      [ ("a", [ (0., 0.); (1., 1.) ]); ("b", [ (0.5, 0.5) ]) ]
  in
  Alcotest.(check bool) "title" true (contains ~needle:"-- t --" s);
  Alcotest.(check bool) "legend a" true (contains ~needle:"* a" s);
  Alcotest.(check bool) "legend b" true (contains ~needle:"+ b" s);
  Alcotest.(check bool) "glyphs plotted" true
    (contains ~needle:"*" s && contains ~needle:"+" s)

let test_plot_empty () =
  let s = Nvsc_util.Ascii_plot.line [ ("a", []) ] in
  Alcotest.(check bool) "empty notice" true (contains ~needle:"(no data)" s)

let test_plot_bars () =
  let s =
    Nvsc_util.Ascii_plot.bars ~width:10 [ ("x", 1.0); ("yy", 0.5) ]
  in
  Alcotest.(check bool) "full bar" true (contains ~needle:"==========" s);
  Alcotest.(check bool) "half bar" true (contains ~needle:"===== 0.5" s)

(* --- extension analyses (smoke, reduced scale) ----------------------------- *)

(* one traced profile per application feeds every study on it *)
let profile name =
  lazy
    (Nvsc_core.Extensions.profile ~scale:0.25 ~iterations:3
       (Option.get (Nvsc_apps.Apps.find name)))

let nek_profile = profile "nek5000"
let cam_profile = profile "cam"

let test_sampling_ablation_detects_loss () =
  let a =
    Nvsc_core.Extensions.sampling_ablation ~period:10_000 ~sample_length:100
      (Lazy.force nek_profile)
  in
  Alcotest.(check bool) "objects lost or misclassified" true
    (a.Nvsc_core.Extensions.lost_objects > 0
    || a.Nvsc_core.Extensions.misclassified_read_only > 0);
  Alcotest.(check (float 1e-9)) "1% ratio" 0.01
    a.Nvsc_core.Extensions.sampling_ratio

let test_fine_monitor_windows () =
  let ctx = Nvsc_appkit.Ctx.create () in
  let seen = ref [] in
  let m =
    Nvsc_core.Fine_monitor.attach ctx ~window_refs:10 ~on_window:(fun counts ->
        seen := counts :: !seen)
  in
  let a = Nvsc_appkit.Farray.global ctx ~name:"g" 8 in
  for _ = 1 to 25 do
    ignore (Nvsc_appkit.Farray.get a 0)
  done;
  (* references are batched in the Ctx until a boundary flush *)
  Nvsc_appkit.Ctx.flush_refs ctx;
  Alcotest.(check int) "two full windows" 2 (Nvsc_core.Fine_monitor.windows m);
  Nvsc_core.Fine_monitor.flush m;
  Alcotest.(check int) "partial window flushed" 3
    (Nvsc_core.Fine_monitor.windows m);
  Alcotest.(check int) "all refs seen" 25
    (Nvsc_core.Fine_monitor.references_seen m);
  (* each full window attributed 10 reads to the object *)
  (match List.rev !seen with
  | (counts : Nvsc_core.Fine_monitor.window_counts) :: _ ->
    (match counts with
    | [ (_, reads, writes) ] ->
      Alcotest.(check int) "window reads" 10 reads;
      Alcotest.(check int) "window writes" 0 writes
    | _ -> Alcotest.fail "one object expected")
  | [] -> Alcotest.fail "windows expected")

let test_fine_grained_placement () =
  let f =
    Nvsc_core.Extensions.fine_grained_placement ~window_refs:50_000
      (Lazy.force nek_profile)
  in
  Alcotest.(check bool) "sub-iteration decision points" true
    (f.Nvsc_core.Extensions.windows > 3);
  Alcotest.(check bool) "residency in range" true
    (f.Nvsc_core.Extensions.avg_nvram_fraction >= 0.
    && f.Nvsc_core.Extensions.avg_nvram_fraction <= 1.);
  Alcotest.(check bool) "the policy reacted" true
    (f.Nvsc_core.Extensions.migrations > 0)

let test_hybrid_simulation_bounds () =
  (* the experiment the paper's SSSV could not run: hybrid power must land
     between the all-DRAM and all-NVRAM bounds, and the static plan must
     keep writes off the NVRAM side *)
  let h =
    Nvsc_core.Extensions.hybrid_simulation (Lazy.force cam_profile)
  in
  let power name =
    let _, p, _ = List.find (fun (n, _, _) -> n = name) h.designs in
    p
  in
  let all_nvram = power "all-STTRAM" and hybrid = power "hybrid" in
  Alcotest.(check (float 1e-9)) "all-DRAM is the baseline" 1.0 (power "all-DRAM");
  Alcotest.(check bool) "hybrid saves something" true (hybrid < 1.0);
  Alcotest.(check bool) "hybrid above the all-NVRAM bound" true
    (hybrid >= all_nvram -. 1e-9);
  Alcotest.(check bool) "writes mostly stay in DRAM" true
    (h.nvram_write_fraction < 0.2);
  Alcotest.(check bool) "accesses routed" true (h.nvram_access_fraction > 0.01)

let test_power_sensitivity_robust () =
  (* the headline conclusion must survive controller design choices *)
  let grid =
    Nvsc_core.Extensions.power_sensitivity (Lazy.force cam_profile)
  in
  Alcotest.(check int) "four configurations" 4 (List.length grid);
  List.iter
    (fun (label, powers) ->
      let get tech =
        snd (List.find (fun ((t : Tech.t), _) -> t.tech = tech) powers)
      in
      let p = get Tech.PCRAM and s = get Tech.STTRAM and m = get Tech.MRAM in
      (* invariant across all controller designs: substantial savings and
         PCRAM (the most diluted device) lowest *)
      Alcotest.(check bool) (label ^ ": saves power") true
        (p < 0.85 && s < 0.85 && m < 0.85);
      Alcotest.(check bool) (label ^ ": PCRAM lowest") true
        (p <= s +. 1e-9 && p <= m +. 1e-9))
    grid;
  (* the paper's full STTRAM <= MRAM ordering holds under the paper's
     open-page policy (first two configurations); under closed-page the
     activation cost flips it — a finding, not a bug *)
  List.iteri
    (fun i (label, powers) ->
      if i < 2 then begin
        let get tech =
          snd (List.find (fun ((t : Tech.t), _) -> t.tech = tech) powers)
        in
        Alcotest.(check bool) (label ^ ": STTRAM <= MRAM") true
          (get Tech.STTRAM <= get Tech.MRAM +. 1e-9)
      end)
    grid

let test_placement_summary_shape () =
  let p =
    Nvsc_core.Extensions.placement_summary (Lazy.force nek_profile)
  in
  Alcotest.(check bool) "dynamic places more" true
    (p.Nvsc_core.Extensions.dynamic_nvram_fraction
    >= p.Nvsc_core.Extensions.static_nvram_fraction);
  Alcotest.(check bool) "bounds sane" true
    (p.Nvsc_core.Extensions.static_slowdown_bound >= 1.0
    && p.Nvsc_core.Extensions.dynamic_slowdown_bound < 1.5)

let suite =
  [
    Alcotest.test_case "ctx sampling" `Quick test_ctx_sampling;
    Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip;
    Alcotest.test_case "trace file parsing" `Quick test_trace_file_parsing;
    Alcotest.test_case "dram cache hit path" `Quick test_dram_cache_hit_path;
    Alcotest.test_case "dram cache dirty writeback" `Quick
      test_dram_cache_dirty_writeback;
    Alcotest.test_case "dram cache poor locality" `Quick
      test_dram_cache_poor_locality_loses;
    Alcotest.test_case "dram cache validation" `Quick test_dram_cache_validation;
    Alcotest.test_case "checkpoint times" `Quick test_checkpoint_times;
    Alcotest.test_case "checkpoint Young interval" `Quick test_checkpoint_young;
    Alcotest.test_case "checkpoint validation" `Quick test_checkpoint_validation;
    Alcotest.test_case "row policy ablation" `Quick test_row_policy;
    Alcotest.test_case "plot line" `Quick test_plot_line;
    Alcotest.test_case "plot empty" `Quick test_plot_empty;
    Alcotest.test_case "plot bars" `Quick test_plot_bars;
    Alcotest.test_case "sampling ablation detects loss" `Slow
      test_sampling_ablation_detects_loss;
    Alcotest.test_case "fine monitor windows" `Quick test_fine_monitor_windows;
    Alcotest.test_case "fine-grained placement" `Slow
      test_fine_grained_placement;
    Alcotest.test_case "hybrid simulation bounds" `Slow
      test_hybrid_simulation_bounds;
    Alcotest.test_case "power sensitivity robust" `Slow
      test_power_sensitivity_robust;
    Alcotest.test_case "placement summary shape" `Slow
      test_placement_summary_shape;
  ]
