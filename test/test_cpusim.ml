module Tlb = Nvsc_cpusim.Tlb
module Core_params = Nvsc_cpusim.Core_params
module Perf_model = Nvsc_cpusim.Perf_model
module Sensitivity = Nvsc_cpusim.Sensitivity
module Tech = Nvsc_nvram.Technology
module Access = Nvsc_memtrace.Access

(* --- TLB --------------------------------------------------------------- *)

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:2 ~page_bytes:4096 in
  Alcotest.(check bool) "cold miss" false (Tlb.access t 0);
  Alcotest.(check bool) "same page hits" true (Tlb.access t 4095);
  Alcotest.(check bool) "new page misses" false (Tlb.access t 4096);
  Alcotest.(check int) "hits" 1 (Tlb.hits t);
  Alcotest.(check int) "misses" 2 (Tlb.misses t)

let test_tlb_lru () =
  let t = Tlb.create ~entries:2 ~page_bytes:4096 in
  ignore (Tlb.access t 0);
  ignore (Tlb.access t 4096);
  ignore (Tlb.access t 0);
  (* page 1 (addr 4096) is LRU; page 2 evicts it *)
  ignore (Tlb.access t 8192);
  Alcotest.(check bool) "page 0 kept" true (Tlb.access t 0);
  Alcotest.(check bool) "page 1 evicted" false (Tlb.access t 4096)

let test_tlb_reset () =
  let t = Tlb.create ~entries:4 ~page_bytes:4096 in
  ignore (Tlb.access t 0);
  Tlb.reset t;
  Alcotest.(check int) "misses cleared" 0 (Tlb.misses t);
  Alcotest.(check bool) "cold again" false (Tlb.access t 0)

let test_tlb_capacity_prop =
  QCheck.Test.make ~name:"working set within capacity never misses twice"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 1 500) (int_range 0 7))
    (fun pages ->
      let t = Tlb.create ~entries:8 ~page_bytes:4096 in
      (* warm all 8 possible pages *)
      for p = 0 to 7 do
        ignore (Tlb.access t (p * 4096))
      done;
      List.for_all (fun p -> Tlb.access t (p * 4096)) pages)

(* --- Perf model -------------------------------------------------------- *)

let test_paper_params () =
  let p = Core_params.paper in
  Alcotest.(check (float 1e-9)) "2.266 GHz" 2.266 p.Core_params.clock_ghz;
  Alcotest.(check int) "TLB 32" 32 p.Core_params.tlb_entries;
  Alcotest.(check int) "miss buffer 64" 64 p.Core_params.miss_buffer

let test_compute_only () =
  let m = Perf_model.create ~mem_latency_ns:10. () in
  Perf_model.instructions m 4000;
  let r = Perf_model.report m in
  Alcotest.(check (float 1e-6)) "base cycles = n/width" 1000. r.Perf_model.cycles;
  Alcotest.(check (float 1e-6)) "no stalls" 0. r.Perf_model.mem_stall_cycles;
  Alcotest.(check (float 1e-6)) "ipc = width" 4. r.Perf_model.ipc

let test_l1_hits_free () =
  let m = Perf_model.create ~mem_latency_ns:10. () in
  Perf_model.access m (Access.read ~addr:0 ~size:8);
  let cold = (Perf_model.report m).Perf_model.cycles in
  for _ = 1 to 100 do
    Perf_model.access m (Access.read ~addr:0 ~size:8)
  done;
  let r = Perf_model.report m in
  Alcotest.(check int) "l1 hits" 100 r.Perf_model.l1_hits;
  (* hot accesses only add base CPI *)
  Alcotest.(check (float 1e-6)) "only frontend cost" (cold +. 25.)
    r.Perf_model.cycles

let random_walk_accesses n seed =
  let rng = Nvsc_util.Rng.of_int seed in
  List.init n (fun _ ->
      Access.read ~addr:(64 * Nvsc_util.Rng.int rng 2_000_000) ~size:8)

let test_latency_monotonicity () =
  let run lat =
    let m = Perf_model.create ~mem_latency_ns:lat () in
    List.iter
      (fun a ->
        Perf_model.instructions m 10;
        Perf_model.access m a)
      (random_walk_accesses 3000 5);
    (Perf_model.report m).Perf_model.runtime_ns
  in
  let t10 = run 10. and t20 = run 20. and t100 = run 100. in
  Alcotest.(check bool) "monotone 10<=20" true (t10 <= t20);
  Alcotest.(check bool) "monotone 20<100" true (t20 < t100)

let test_prefetcher_covers_streams () =
  (* a pure sequential sweep: after the first misses, the stream
     prefetcher must cover nearly everything *)
  let m = Perf_model.create ~mem_latency_ns:100. () in
  for i = 0 to 9999 do
    Perf_model.access m (Access.read ~addr:(i * 64) ~size:8)
  done;
  let r = Perf_model.report m in
  Alcotest.(check bool) "few demand clusters" true (r.Perf_model.miss_clusters < 20)

let test_mlp_clustering () =
  (* independent misses in one ROB window share a cluster *)
  let params = Core_params.make ~effective_mlp:4 ~rob_entries:128 () in
  let m = Perf_model.create ~params ~mem_latency_ns:100. () in
  (* 4 far-apart lines, back to back: one cluster *)
  List.iter
    (fun k ->
      Perf_model.access m (Access.read ~addr:(k * 1_000_000 * 64) ~size:8))
    [ 1; 3; 5; 7 ];
  let r = Perf_model.report m in
  Alcotest.(check int) "one cluster" 1 r.Perf_model.miss_clusters

let test_fig12_shape () =
  (* workload with high locality and streaming: the paper's figure 12
     shape — MRAM negligible, STTRAM < 5%, PCRAM < ~40% *)
  let replay model =
    let rng = Nvsc_util.Rng.of_int 4 in
    for i = 0 to 20_000 do
      Perf_model.instructions model 16;
      (* mostly streaming, occasionally random *)
      let addr =
        if Nvsc_util.Rng.bernoulli rng 0.02 then
          64 * Nvsc_util.Rng.int rng 1_000_000
        else i * 64
      in
      Perf_model.access model (Access.read ~addr ~size:8)
    done
  in
  let points = Sensitivity.run ~replay () in
  let get name =
    (List.find (fun (p : Sensitivity.point) -> p.tech.Tech.name = name) points)
      .normalized_runtime
  in
  Alcotest.(check (float 1e-9)) "DDR3 = 1" 1.0 (get "DDR3");
  Alcotest.(check bool) "MRAM negligible" true (get "MRAM" < 1.02);
  Alcotest.(check bool) "STTRAM small" true (get "STTRAM" < 1.05);
  Alcotest.(check bool) "PCRAM largest" true
    (get "PCRAM" >= get "STTRAM" && get "PCRAM" < 1.6)

let test_asymmetric_posted_writes () =
  (* the paper's read=write assumption is a lower bound (SSV); with posted
     writes the write latency is mostly absorbed *)
  let replay model =
    for i = 0 to 20_000 do
      Perf_model.instructions model 6;
      (* write-heavy streaming: the worst case for the symmetric model *)
      let a =
        if i mod 3 = 0 then Access.write ~addr:(i * 64) ~size:8
        else Access.read ~addr:(i * 64) ~size:8
      in
      Perf_model.access model a
    done
  in
  let points = Sensitivity.run ~replay () in
  List.iter
    (fun name ->
      let p =
        List.find
          (fun (p : Sensitivity.point) -> p.tech.Tech.name = name)
          points
      in
      Alcotest.(check bool)
        (name ^ " asymmetric <= symmetric")
        true
        (p.posted_normalized_runtime <= p.normalized_runtime +. 1e-9))
    [ "PCRAM"; "STTRAM"; "MRAM" ]

let test_write_buffer_saturates () =
  (* a pure write stream of random lines must eventually stall on the
     write buffer: runtime grows with write latency *)
  let run wlat =
    let m =
      Perf_model.create ~mem_write_latency_ns:wlat ~write_buffer_entries:4
        ~mem_latency_ns:10. ()
    in
    let rng = Nvsc_util.Rng.of_int 7 in
    for _ = 0 to 5_000 do
      Perf_model.access m
        (Access.write ~addr:(64 * Nvsc_util.Rng.int rng 1_000_000) ~size:8)
    done;
    (Perf_model.report m).Perf_model.runtime_ns
  in
  Alcotest.(check bool) "slow writes eventually stall" true
    (run 1000. > 1.5 *. run 10.)

let test_sensitivity_requires_ddr3 () =
  let calls = ref 0 in
  Alcotest.check_raises "no baseline"
    (Invalid_argument "Sensitivity.run: DDR3 baseline required") (fun () ->
      ignore
        (Sensitivity.run
           ~techs:[ Tech.get Tech.PCRAM ]
           ~replay:(fun _ -> incr calls)
           ()));
  Alcotest.(check int) "replay never called" 0 !calls

(* Every technology is accounted under both write models from one pass
   over the stream; each write model is normalised to its own DDR3 run. *)
let test_sensitivity_one_pass () =
  let calls = ref 0 in
  let points =
    Sensitivity.run ~techs:Tech.all
      ~replay:(fun m ->
        incr calls;
        Perf_model.instructions m 8;
        Perf_model.access m (Access.write ~addr:4096 ~size:8))
      ()
  in
  Alcotest.(check int) "one replay" 1 !calls;
  Alcotest.(check int) "one point per technology" (List.length Tech.all)
    (List.length points);
  let ddr3 =
    List.find (fun (p : Sensitivity.point) -> p.tech.tech = Tech.DDR3) points
  in
  Alcotest.(check (float 0.)) "paper DDR3 = 1" 1. ddr3.normalized_runtime;
  Alcotest.(check (float 0.)) "posted DDR3 = 1" 1.
    ddr3.posted_normalized_runtime

let test_invalid_latency () =
  let rejects name what f =
    Alcotest.check_raises name (Invalid_argument what) (fun () -> ignore (f ()))
  in
  List.iter
    (fun lat ->
      let name = Printf.sprintf "%h" lat in
      rejects ("latency " ^ name) "Perf_model.create: latency" (fun () ->
          Perf_model.create ~mem_latency_ns:lat ());
      rejects ("write latency " ^ name) "Perf_model.create: write latency"
        (fun () ->
          Perf_model.create ~mem_write_latency_ns:lat ~mem_latency_ns:10. ());
      rejects ("ledger latency " ^ name) "Perf_model.create_ledgers: latency"
        (fun () ->
          Perf_model.create_ledgers
            [
              { mem_latency_ns = 10.; mem_write_latency_ns = None };
              { mem_latency_ns = lat; mem_write_latency_ns = None };
            ]);
      rejects ("ledger write latency " ^ name)
        "Perf_model.create_ledgers: write latency" (fun () ->
          Perf_model.create_ledgers
            [ { mem_latency_ns = 10.; mem_write_latency_ns = Some lat } ]))
    [ 0.; -1.; nan; infinity; neg_infinity ];
  rejects "no ledger" "Perf_model.create_ledgers: no latency" (fun () ->
      Perf_model.create_ledgers [])

(* Paper mode: with the read = write assumption, normalised runtime never
   falls as the simulated latency rises, and DDR3 is the unit — on any
   application at any scale. *)
let test_fig12_monotone_prop =
  QCheck.Test.make ~name:"figure 12 runtime monotone in latency" ~count:5
    QCheck.(
      make
        ~print:(fun (app, scale) ->
          let (module A : Nvsc_apps.Workload.APP) = app in
          Printf.sprintf "%s at scale %g" A.name scale)
        Gen.(
          pair (oneofl Nvsc_apps.Apps.all)
            (map (fun k -> float_of_int k /. 100.) (int_range 2 8))))
    (fun (app, scale) ->
      let points =
        Sensitivity.run ~techs:Tech.all
          ~replay:(Nvsc_core.Experiment.perf_replay ~scale app)
          ()
        |> List.sort (fun (a : Sensitivity.point) b ->
               Float.compare a.latency_ns b.latency_ns)
      in
      let rec monotone = function
        | (a : Sensitivity.point) :: (b :: _ as rest) ->
          a.normalized_runtime <= b.normalized_runtime && monotone rest
        | _ -> true
      in
      List.for_all
        (fun (p : Sensitivity.point) ->
          p.tech.tech <> Tech.DDR3 || p.normalized_runtime = 1.0)
        points
      && monotone points)

let suite =
  [
    Alcotest.test_case "tlb hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb LRU" `Quick test_tlb_lru;
    Alcotest.test_case "tlb reset" `Quick test_tlb_reset;
    QCheck_alcotest.to_alcotest test_tlb_capacity_prop;
    Alcotest.test_case "paper core params" `Quick test_paper_params;
    Alcotest.test_case "compute-only cycles" `Quick test_compute_only;
    Alcotest.test_case "L1 hits pipelined" `Quick test_l1_hits_free;
    Alcotest.test_case "latency monotonicity" `Quick test_latency_monotonicity;
    Alcotest.test_case "prefetcher covers streams" `Quick
      test_prefetcher_covers_streams;
    Alcotest.test_case "MLP clustering" `Quick test_mlp_clustering;
    Alcotest.test_case "figure-12 shape" `Quick test_fig12_shape;
    Alcotest.test_case "asymmetric posted writes" `Quick
      test_asymmetric_posted_writes;
    Alcotest.test_case "write buffer saturates" `Quick
      test_write_buffer_saturates;
    Alcotest.test_case "sensitivity baseline" `Quick
      test_sensitivity_requires_ddr3;
    Alcotest.test_case "sensitivity makes one pass" `Quick
      test_sensitivity_one_pass;
    Alcotest.test_case "latency validation" `Quick test_invalid_latency;
    QCheck_alcotest.to_alcotest test_fig12_monotone_prop;
  ]
