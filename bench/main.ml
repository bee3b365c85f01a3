(* Benchmark harness: one Bechamel test per paper table/figure (measuring
   the cost of regenerating it at a reduced configuration), plus ablation
   benches for the design choices DESIGN.md calls out (object-registry LRU
   cache and bucket width, address-mapping scheme, trace-buffer batching).

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

module E = Nvsc_core.Experiment
module Tech = Nvsc_nvram.Technology
module Access = Nvsc_memtrace.Access

let quick = { E.scale = 0.15; iterations = 3; perf_scale = 0.15 }

(* Shared inputs, computed once: one traced run per paper application.
   The benches measure regeneration cost, not workload execution cost
   (benched separately below). *)
let profiles =
  lazy
    (List.map
       (Nvsc_core.Extensions.profile ~scale:quick.scale
          ~iterations:quick.iterations)
       Nvsc_apps.Apps.all)

let each f () = ignore (List.map f (Lazy.force profiles))

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* --- per-table/figure benches ------------------------------------------ *)

let quick_scavenger_config =
  Nvsc_core.Scavenger.Config.(
    default |> with_scale 0.1 |> with_iterations 1)

let bench_scavenger name =
  Test.make ~name:(Printf.sprintf "pipeline:scavenger-%s" name)
    (Staged.stage (fun () ->
         ignore
           (Nvsc_core.Scavenger.run quick_scavenger_config
              (Option.get (Nvsc_apps.Apps.find name)))))

(* Tentpole check: the same run with the span recorder armed.  The obs
   buffers are dropped between runs so they cannot grow across the
   measurement; the printed ratio is the armed-vs-disarmed overhead (the
   disarmed cost itself is the scavenger bench above vs its pre-obs
   baseline). *)
let bench_scavenger_armed name =
  Test.make ~name:(Printf.sprintf "obs:scavenger-%s-armed" name)
    (Staged.stage (fun () ->
         ignore
           (Nvsc_core.Scavenger.run
              Nvsc_core.Scavenger.Config.(
                quick_scavenger_config |> with_obs Nvsc_obs.on)
              (Option.get (Nvsc_apps.Apps.find name)));
         Nvsc_obs.reset ()))

let bench_table1 =
  Test.make ~name:"table1:app-characteristics"
    (Staged.stage (fun () ->
         E.pp_table1_rows null_fmt
           (List.map
              (fun (r : Nvsc_core.Scavenger.result) ->
                {
                  E.app_name = r.app_name;
                  input_description = r.input_description;
                  description = r.description;
                  footprint_bytes = r.footprint_bytes;
                  paper_footprint_mb = r.paper_footprint_mb;
                })
              (Lazy.force profiles))))

let bench_table2 =
  Test.make ~name:"table2:cache-config"
    (Staged.stage (fun () -> E.table2 null_fmt ()))

let bench_table3 =
  Test.make ~name:"table3:system-config"
    (Staged.stage (fun () -> E.table3 null_fmt ()))

let bench_table4 =
  Test.make ~name:"table4:memory-latencies"
    (Staged.stage (fun () -> E.table4 null_fmt ()))

let bench_table5 =
  Test.make ~name:"table5:stack-analysis"
    (Staged.stage (each Nvsc_core.Stack_analysis.summarize))

let bench_fig2 =
  Test.make ~name:"fig2:cam-frame-distribution"
    (Staged.stage (fun () ->
         ignore
           (Nvsc_core.Stack_analysis.distribution
              (List.find
                 (fun (r : Nvsc_core.Scavenger.result) -> r.app_name = "cam")
                 (Lazy.force profiles)))))

let bench_fig3_6 =
  Test.make ~name:"fig3-6:object-metrics"
    (Staged.stage (each Nvsc_core.Object_analysis.analyze))

let bench_fig7 =
  Test.make ~name:"fig7:usage-cdf"
    (Staged.stage (each Nvsc_core.Usage_variance.usage_cdf))

let bench_fig8_11 =
  Test.make ~name:"fig8-11:metric-variance"
    (Staged.stage (each Nvsc_core.Usage_variance.variance))

let bench_table6 =
  Test.make ~name:"table6:power-simulation"
    (Staged.stage
       (each (fun (r : Nvsc_core.Scavenger.result) ->
            let trace = Option.get r.mem_trace in
            Nvsc_dramsim.Memory_system.normalized_power
              (Nvsc_dramsim.Memory_system.compare_technologies
                 ~techs:Tech.paper_set
                 ~replay:(Nvsc_memtrace.Trace_log.replay_batch trace)
                 ()))))

(* the perf cells of the quick evaluation matrix, one pass per application *)
let bench_fig12 =
  let specs =
    Nvsc_sweep.Engine.experiments_matrix ~config:quick
    |> Nvsc_sweep.Matrix.cells
    |> List.filter (fun (s : Nvsc_sweep.Cell.spec) ->
           s.kind = Nvsc_sweep.Cell.Perf)
  in
  Test.make ~name:"fig12:latency-sensitivity"
    (Staged.stage (fun () ->
         List.iter (fun s -> ignore (Nvsc_sweep.Cell.execute s)) specs))

(* --- substrate micro-benches ------------------------------------------- *)

(* Materialise a generated stream as an array fixture by draining it into a
   trace log (streaming API; no intermediate list). *)
let gen_array gen =
  let log = Nvsc_memtrace.Trace_log.create () in
  let s = Nvsc_memtrace.Trace_log.sink log in
  ignore (Nvsc_memtrace.Trace_gen.into gen s);
  Nvsc_memtrace.Sink.flush s;
  Array.init (Nvsc_memtrace.Trace_log.length log) (Nvsc_memtrace.Trace_log.get log)

let trace_10k =
  lazy
    (gen_array
       (Nvsc_memtrace.Trace_gen.hot_cold ~seed:7 ~hot_fraction:0.7
          ~hot_lines:8192 ~cold_lines:262144 ~write_fraction:0.3 ~n:10_000 ()))

(* Fixture for the sink-throughput comparison: a recorded 100k-reference
   trace replayed per-access (old pipeline shape) vs as one flat batch. *)
let throughput_refs = 100_000

let log_100k =
  lazy
    (let log = Nvsc_memtrace.Trace_log.create ~initial_capacity:throughput_refs () in
     let s = Nvsc_memtrace.Trace_log.sink log in
     ignore
       (Nvsc_memtrace.Trace_gen.into
          (Nvsc_memtrace.Trace_gen.zipf ~seed:11 ~lines:65536
             ~write_fraction:0.3 ~n:throughput_refs ())
          s);
     Nvsc_memtrace.Sink.flush s;
     log)

let bench_cache_filter =
  Test.make ~name:"substrate:cache-hierarchy-10k"
    (Staged.stage (fun () ->
         let h =
           Nvsc_cachesim.Hierarchy.create ~sink:(Nvsc_memtrace.Sink.null ()) ()
         in
         Array.iter (Nvsc_cachesim.Hierarchy.access h) (Lazy.force trace_10k);
         Nvsc_cachesim.Hierarchy.drain h))

let bench_controller tech_name tech =
  Test.make ~name:(Printf.sprintf "substrate:dramsim-10k-%s" tech_name)
    (Staged.stage (fun () ->
         let c = Nvsc_dramsim.Controller.create ~tech () in
         Array.iter (Nvsc_dramsim.Controller.submit c) (Lazy.force trace_10k);
         ignore (Nvsc_dramsim.Controller.stats c)))

let bench_perf_model =
  Test.make ~name:"substrate:perf-model-10k"
    (Staged.stage (fun () ->
         let m = Nvsc_cpusim.Perf_model.create ~mem_latency_ns:100. () in
         Array.iter
           (fun a ->
             Nvsc_cpusim.Perf_model.instructions m 4;
             Nvsc_cpusim.Perf_model.access m a)
           (Lazy.force trace_10k);
         ignore (Nvsc_cpusim.Perf_model.report m)))

(* --- ablations ---------------------------------------------------------- *)

(* Registry lookup with and without the LRU software cache (paper §III-D):
   the ablation quantifies how much the cache buys on a hot access
   pattern. *)
let registry_with_objects ~cache_slots =
  let r = Nvsc_memtrace.Object_registry.create ~cache_slots () in
  for i = 0 to 499 do
    ignore
      (Nvsc_memtrace.Object_registry.register r
         (Nvsc_memtrace.Mem_object.make ~id:i ~name:"o"
            ~kind:Nvsc_memtrace.Layout.Heap
            ~base:(Nvsc_memtrace.Layout.heap_base + (i * 8192))
            ~size:8192 ()))
  done;
  r

let lookup_pattern =
  lazy
    (let rng = Nvsc_util.Rng.of_int 3 in
     Array.init 20_000 (fun _ ->
         (* hot subset with occasional far references *)
         let obj =
           if Nvsc_util.Rng.bernoulli rng 0.9 then Nvsc_util.Rng.int rng 4
           else Nvsc_util.Rng.int rng 500
         in
         Nvsc_memtrace.Layout.heap_base + (obj * 8192)
         + (8 * Nvsc_util.Rng.int rng 1024)))

let bench_registry_lookup ~name ~cache_slots =
  Test.make ~name
    (Staged.stage (fun () ->
         let r = registry_with_objects ~cache_slots in
         Array.iter
           (fun addr -> ignore (Nvsc_memtrace.Object_registry.lookup r addr))
           (Lazy.force lookup_pattern)))

let bench_mapping scheme =
  Test.make
    ~name:
      (Printf.sprintf "ablation:mapping-%s"
         (Nvsc_dramsim.Address_mapping.scheme_name scheme))
    (Staged.stage (fun () ->
         let c = Nvsc_dramsim.Controller.create ~scheme ~tech:(Tech.get Tech.DDR3) () in
         Array.iter (Nvsc_dramsim.Controller.submit c) (Lazy.force trace_10k);
         ignore (Nvsc_dramsim.Controller.stats c)))

let bench_sink_capacity ~name ~capacity =
  Test.make ~name
    (Staged.stage (fun () ->
         let count = ref 0 in
         let s =
           Nvsc_memtrace.Sink.create ~capacity (fun _ ~first:_ ~n ->
               count := !count + n)
         in
         Array.iter (Nvsc_memtrace.Sink.push_access s) (Lazy.force trace_10k);
         Nvsc_memtrace.Sink.flush s))

(* Satellite: old per-access closure transport vs flat batch delivery over
   the same recorded trace.  The per-run ratio is printed after the table. *)
let bench_sink_closure =
  Test.make ~name:"pipeline:sink-throughput-closure"
    (Staged.stage (fun () ->
         let total = ref 0 in
         Nvsc_memtrace.Trace_log.replay (Lazy.force log_100k) (fun a ->
             total := !total + (a.Access.addr lxor a.Access.size));
         ignore !total))

let bench_sink_batched =
  Test.make ~name:"pipeline:sink-throughput-batched"
    (Staged.stage (fun () ->
         let total = ref 0 in
         (* capacity 1: replay_batch delivers the log zero-copy, so the
            sink's own buffer is never used — don't pay for one *)
         let s =
           Nvsc_memtrace.Sink.create ~capacity:1 (fun b ~first ~n ->
               let module B = Nvsc_memtrace.Sink.Batch in
               for i = first to first + n - 1 do
                 total := !total + (B.addr b i lxor B.size b i)
               done)
         in
         Nvsc_memtrace.Trace_log.replay_batch (Lazy.force log_100k) s;
         ignore !total))

(* Satellite: full scavenger run with the trace sanitizer attached vs the
   bare sink pipeline — the cost of checked batch accessors, redzones and
   shadow-state maintenance.  The per-run ratio is printed after the
   table. *)
let bench_scavenger_sanitized name =
  Test.make ~name:(Printf.sprintf "pipeline:scavenger-%s-sanitized" name)
    (Staged.stage (fun () ->
         ignore
           (Nvsc_core.Scavenger.run
              Nvsc_core.Scavenger.Config.(
                quick_scavenger_config |> with_sanitize true)
              (Option.get (Nvsc_apps.Apps.find name)))))

(* Satellite: the `lint --persist` pipeline — the sanitized run with the
   NVSC-Persist crash-consistency checker also attached.  The apps are
   epoch-annotated, so this is the armed-but-clean cost over plain lint:
   per-write persist-set membership tests plus the per-line state machine
   at every flush/fence/commit (the transport and shadow-state cost is
   already paid by the sanitizer).  The per-run ratio is printed after
   the table. *)
let bench_scavenger_persist name =
  Test.make ~name:(Printf.sprintf "persist:check-%s" name)
    (Staged.stage (fun () ->
         ignore
           (Nvsc_core.Scavenger.run
              Nvsc_core.Scavenger.Config.(
                quick_scavenger_config |> with_sanitize true
                |> with_persist true)
              (Option.get (Nvsc_apps.Apps.find name)))))

let bench_wear_leveling ~name scheme =
  Test.make ~name
    (Staged.stage (fun () ->
         let t = Nvsc_nvram.Wear_leveling.create scheme ~lines:1024 in
         let rng = Nvsc_util.Rng.of_int 5 in
         for _ = 1 to 20_000 do
           let l =
             if Nvsc_util.Rng.bernoulli rng 0.9 then 0
             else Nvsc_util.Rng.int rng 1024
           in
           ignore (Nvsc_nvram.Wear_leveling.write t l)
         done))

let bench_dram_cache =
  Test.make ~name:"substrate:dram-page-cache-10k"
    (Staged.stage (fun () ->
         let dc =
           Nvsc_placement.Dram_cache.create ~dram_pages:256
             ~tech:(Tech.get Tech.PCRAM) ()
         in
         Array.iter (Nvsc_placement.Dram_cache.access dc) (Lazy.force trace_10k);
         Nvsc_placement.Dram_cache.drain dc))

let bench_trace_file =
  Test.make ~name:"substrate:trace-file-roundtrip-10k"
    (Staged.stage (fun () ->
         let log = Nvsc_memtrace.Trace_log.create () in
         Array.iter (Nvsc_memtrace.Trace_log.record log) (Lazy.force trace_10k);
         let path = Filename.temp_file "nvsc_bench" ".trace" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             Nvsc_memtrace.Trace_file.save log path;
             ignore (Nvsc_memtrace.Trace_file.load path))))

(* Satellite: NVT record/replay vs regenerating the same analysis live.
   The fixture trace is recorded once outside the measured region; the
   Mref/s and bytes/ref summary is printed after the table. *)
let nvt_fixture =
  lazy
    (let path = Filename.temp_file "nvsc_bench" ".nvt" in
     let summary =
       Nvsc_core.Trace_run.record ~scale:0.1 ~iterations:1 ~path
         (Option.get (Nvsc_apps.Apps.find "gtc"))
     in
     (path, summary))

let bench_trace_record =
  Test.make ~name:"trace:record-gtc"
    (Staged.stage (fun () ->
         let path = Filename.temp_file "nvsc_bench_rec" ".nvt" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             ignore
               (Nvsc_core.Trace_run.record ~scale:0.1 ~iterations:1 ~path
                  (Option.get (Nvsc_apps.Apps.find "gtc"))))))

let bench_trace_replay =
  Test.make ~name:"trace:replay-gtc"
    (Staged.stage (fun () ->
         ignore (Nvsc_core.Trace_run.replay (fst (Lazy.force nvt_fixture)))))

(* the live pipeline producing the result a replay reproduces *)
let bench_trace_livegen =
  Test.make ~name:"trace:livegen-gtc"
    (Staged.stage (fun () ->
         ignore
           (Nvsc_core.Scavenger.run
              Nvsc_core.Scavenger.Config.(
                quick_scavenger_config |> with_trace true)
              (Option.get (Nvsc_apps.Apps.find "gtc")))))

(* Satellite: a resident daemon with a warm cache vs paying process
   startup and a cold analysis for every request.  The fixture starts an
   in-process server on a temp socket and issues one analyze to warm the
   cache; the measured region is then a full client round-trip (request,
   streamed output, done frame) that hits the cache on every cell.  The
   cold-spawn bench runs the same analysis by exec'ing the real binary,
   which is what `nvscav serve` exists to amortise; the req/s summary is
   printed after the table. *)
module Serve = Nvsc_serve

let serve_req =
  Serve.Protocol.Analyze { app = "gtc"; scale = 0.1; iterations = 1 }

let serve_fixture =
  lazy
    (let dir = Filename.temp_file "nvsc_bench_serve" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     let sock = Filename.concat dir "nvscav.sock" in
     let t =
       Serve.Server.start
         { Serve.Server.default with socket = Some sock; jobs = Some 2 }
     in
     let c =
       match Serve.Client.connect ~socket:sock () with
       | Ok c -> c
       | Error msg -> failwith msg
     in
     (* warm the cache so the measured round-trips miss nothing *)
     (match Serve.Client.request ~on_output:ignore c serve_req with
     | Ok _ -> ()
     | Error msg -> failwith msg);
     (t, c, dir))

let bench_serve_warm =
  Test.make ~name:"serve:analyze-gtc-warm"
    (Staged.stage (fun () ->
         let _, c, _ = Lazy.force serve_fixture in
         match Serve.Client.request ~on_output:ignore c serve_req with
         | Ok _ -> ()
         | Error msg -> failwith msg))

(* the daemon's baseline: exec the binary and run the same analysis cold *)
let nvscav_exe =
  lazy
    (let candidate =
       Filename.concat
         (Filename.dirname Sys.executable_name)
         (Filename.concat ".." (Filename.concat "bin" "nvscav.exe"))
     in
     if Sys.file_exists candidate then Some candidate else None)

let bench_serve_cold exe =
  Test.make ~name:"serve:analyze-gtc-coldspawn"
    (Staged.stage (fun () ->
         let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
         let pid =
           Unix.create_process exe
             [| exe; "analyze"; "gtc"; "--scale"; "0.1"; "--iterations"; "1" |]
             null null null
         in
         Unix.close null;
         ignore (Unix.waitpid [] pid)))

(* Satellite: the full experiments matrix (objects, power and perf cells
   for every paper app) through the sweep engine at 1, 2 and 4 worker
   domains; the scaling summary is printed after the table.  Speedup only
   shows on multicore hosts — on one core the three land together. *)
let sweep_config = { E.scale = 0.1; iterations = 2; perf_scale = 0.1 }

let sweep_matrix =
  lazy (Nvsc_sweep.Engine.experiments_matrix ~config:sweep_config)

let bench_sweep jobs =
  Test.make ~name:(Printf.sprintf "sweep:experiments-matrix-%d" jobs)
    (Staged.stage (fun () ->
         ignore (Nvsc_sweep.Engine.run ~jobs (Lazy.force sweep_matrix))))

let tests =
  Test.make_grouped ~name:"nv-scavenger"
    ((* the cold-spawn baseline needs the built binary next to this bench *)
     (match Lazy.force nvscav_exe with
     | Some exe -> [ bench_serve_cold exe ]
     | None -> [])
    @ [
      bench_scavenger "nek5000";
      bench_scavenger "cam";
      bench_scavenger "gtc";
      bench_scavenger "s3d";
      bench_table1;
      bench_table2;
      bench_table3;
      bench_table4;
      bench_table5;
      bench_fig2;
      bench_fig3_6;
      bench_fig7;
      bench_fig8_11;
      bench_table6;
      bench_fig12;
      bench_cache_filter;
      bench_controller "ddr3" (Tech.get Tech.DDR3);
      bench_controller "pcram" (Tech.get Tech.PCRAM);
      bench_perf_model;
      bench_registry_lookup ~name:"ablation:registry-lru8" ~cache_slots:8;
      bench_registry_lookup ~name:"ablation:registry-lru1" ~cache_slots:1;
      bench_mapping Nvsc_dramsim.Address_mapping.Row_bank_rank_col;
      bench_mapping Nvsc_dramsim.Address_mapping.Line_interleave;
      bench_sink_capacity ~name:"ablation:sink-batch-64k" ~capacity:65536;
      bench_sink_capacity ~name:"ablation:sink-batch-16" ~capacity:16;
      bench_sink_closure;
      bench_sink_batched;
      bench_scavenger_sanitized "gtc";
      bench_scavenger_armed "gtc";
      bench_scavenger_persist "gtc";
      bench_wear_leveling ~name:"ablation:wear-start-gap"
        (Nvsc_nvram.Wear_leveling.Start_gap { gap_move_interval = 100 });
      bench_wear_leveling ~name:"ablation:wear-table"
        (Nvsc_nvram.Wear_leveling.Table_based { swap_interval = 100 });
      bench_dram_cache;
      bench_trace_record;
      bench_trace_replay;
      bench_trace_livegen;
      bench_sweep 1;
      bench_sweep 2;
      bench_sweep 4;
      bench_serve_warm;
      bench_trace_file;
      Test.make ~name:"ablation:scheduler-fr-fcfs-10k"
        (Staged.stage (fun () ->
             let c =
               Nvsc_dramsim.Controller.create
                 ~scheduler:(Nvsc_dramsim.Controller.Fr_fcfs 16)
                 ~tech:(Tech.get Tech.DDR3) ()
             in
             Array.iter (Nvsc_dramsim.Controller.submit c) (Lazy.force trace_10k);
             ignore (Nvsc_dramsim.Controller.stats c)));
      ])

let () =
  (* force shared fixtures outside the measured region *)
  ignore (Lazy.force profiles);
  ignore (Lazy.force trace_10k);
  ignore (Lazy.force log_100k);
  ignore (Lazy.force lookup_pattern);
  ignore (Lazy.force nvt_fixture);
  ignore (Lazy.force serve_fixture);
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      clock []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Format.printf "%-50s %14s@." "benchmark" "time/run";
  Format.printf "%s@." (String.make 66 '-');
  List.iter
    (fun (name, ns) ->
      Format.printf "%-50s %12.1fus@." name (ns /. 1_000.))
    rows;
  (* sink-throughput summary: refs/sec through both transports *)
  let find suffix =
    List.find_map
      (fun (name, ns) ->
        if
          String.length name >= String.length suffix
          && String.sub name
               (String.length name - String.length suffix)
               (String.length suffix)
             = suffix
        then Some ns
        else None)
      rows
  in
  (match (find "sink-throughput-closure", find "sink-throughput-batched") with
  | Some c, Some b when b > 0. && c > 0. ->
    let refs = float_of_int throughput_refs in
    Format.printf
      "@.sink throughput (%d refs): closure %.1f Mref/s, batched %.1f Mref/s \
       (%.2fx)@."
      throughput_refs
      (refs /. c *. 1_000.)
      (refs /. b *. 1_000.)
      (c /. b)
  | _ -> ());
  (* sanitizer-overhead summary: same app, bare sink vs NVSC-San attached *)
  (match (find "scavenger-gtc", find "scavenger-gtc-sanitized") with
  | Some bare, Some san when bare > 0. ->
    Format.printf
      "sanitizer overhead (gtc): bare %.1fus, sanitized %.1fus (%.2fx)@."
      (bare /. 1_000.) (san /. 1_000.) (san /. bare)
  | _ -> ());
  (* persist-overhead summary: the lint pipeline with and without the
     crash-consistency checker over a clean epoch-annotated run *)
  (match (find "scavenger-gtc-sanitized", find "persist:check-gtc") with
  | Some lint, Some chk when lint > 0. ->
    Format.printf
      "persist overhead (gtc, armed-but-clean): lint %.1fus, lint --persist \
       %.1fus (%.2fx)@."
      (lint /. 1_000.) (chk /. 1_000.) (chk /. lint)
  | _ -> ());
  (* obs-overhead summary: same app, recorder disarmed vs armed *)
  (match (find "scavenger-gtc", find "scavenger-gtc-armed") with
  | Some bare, Some armed when bare > 0. ->
    Format.printf
      "obs:overhead (gtc): disarmed %.1fus, armed %.1fus (%.2fx)@."
      (bare /. 1_000.) (armed /. 1_000.) (armed /. bare)
  | _ -> ());
  (* NVT summary: record/replay throughput and density vs regenerating the
     same analysis live *)
  (match
     ( find "trace:record-gtc",
       find "trace:replay-gtc",
       find "trace:livegen-gtc" )
   with
  | Some rec_ns, Some rep_ns, Some live_ns
    when rec_ns > 0. && rep_ns > 0. && live_ns > 0. ->
    let path, (s : Nvsc_memtrace.Trace_codec.summary) =
      Lazy.force nvt_fixture
    in
    let refs = float_of_int s.refs in
    Format.printf
      "nvt trace (gtc, %d refs, %.2f bytes/ref): record %.1f Mref/s, replay \
       %.1f Mref/s, live generation %.1f Mref/s (replay %.2fx live)@."
      s.refs
      (float_of_int s.bytes /. refs)
      (refs /. rec_ns *. 1_000.)
      (refs /. rep_ns *. 1_000.)
      (refs /. live_ns *. 1_000.)
      (live_ns /. rep_ns);
    Sys.remove path
  | _ -> ());
  (* serve summary: warm daemon round-trips vs paying process startup and
     a cold analysis per request *)
  (match find "serve:analyze-gtc-warm" with
  | Some warm when warm > 0. -> (
    let req_s = 1e9 /. warm in
    match find "serve:analyze-gtc-coldspawn" with
    | Some cold when cold > 0. ->
      Format.printf
        "serve (gtc analyze, warm cache): round-trip %.1fus (%.0f req/s), \
         cold process %.1fms per request (%.0fx)@."
        (warm /. 1e3) req_s (cold /. 1e6) (cold /. warm)
    | _ ->
      Format.printf
        "serve (gtc analyze, warm cache): round-trip %.1fus (%.0f req/s)@."
        (warm /. 1e3) req_s)
  | _ -> ());
  (* sweep-scaling summary: the same experiments matrix at 1/2/4 domains *)
  (match
     ( find "experiments-matrix-1",
       find "experiments-matrix-2",
       find "experiments-matrix-4" )
   with
  | Some j1, Some j2, Some j4 when j1 > 0. && j2 > 0. && j4 > 0. ->
    Format.printf
      "sweep scaling (12-cell matrix): 1 domain %.1fms, 2 domains %.1fms \
       (%.2fx), 4 domains %.1fms (%.2fx)@."
      (j1 /. 1e6) (j2 /. 1e6) (j1 /. j2) (j4 /. 1e6) (j1 /. j4)
  | _ -> ());
  (* the daemon fixture owns a socket and a temp cache: shut it down *)
  let t, c, dir = Lazy.force serve_fixture in
  Serve.Client.close c;
  Serve.Server.stop t;
  try Unix.rmdir dir with Unix.Unix_error _ -> ()
