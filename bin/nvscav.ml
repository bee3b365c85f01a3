(* nvscav: NV-Scavenger command-line interface.

   Analyze the instrumented mini-applications for NVRAM placement
   opportunities: per-object metrics, stack analysis, power simulation,
   performance sensitivity, and hybrid-placement planning. *)

open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

module Cli = Nvsc_util.Cli

let app_arg =
  let doc =
    "Application to analyze: nek5000, cam, gtc, s3d, minife or minimd."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let scale_arg = Cli.scale
let iterations_arg = Cli.iterations

let find_app name =
  match Nvsc_apps.Apps.find name with
  | Some app -> Ok app
  | None ->
    Error (Cli.unknown ~what:"application" ~known:Nvsc_apps.Apps.names name)

(* Every analysis below starts from the same run configuration. *)
let scavenger_config ~scale ~iterations =
  Nvsc_core.Scavenger.Config.(
    default |> with_scale scale |> with_iterations iterations)

let with_app name f =
  match find_app name with
  | Ok app -> (f app : unit); `Ok ()
  | Error msg -> `Error (false, msg)

(* Trace I/O failures (damaged .nvt files, unwritable paths) are user
   errors, not crashes. *)
let with_trace_errors f =
  try f () with
  | Nvsc_memtrace.Trace_codec.Error msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)

let fmt = Format.std_formatter

(* The [--profile] driver every subcommand shares. *)
let with_profile profile f =
  Nvsc_obs.with_profiling
    ?trace_out:(Cli.profile_trace_out profile)
    ~enabled:(Cli.profile_enabled profile)
    f

let tech_arg =
  let doc =
    "NVRAM technology for the hybrid's NVRAM half (the place cell of \
     $(b,run), $(b,place) and $(b,replay))."
  in
  Arg.(value & opt string "sttram" & info [ "tech" ] ~docv:"TECH" ~doc)

let replay_kind_arg =
  let doc =
    "Analysis to replay: $(b,run) (default), $(b,objects), $(b,power), \
     $(b,perf) or $(b,place)."
  in
  Arg.(value & opt string "run" & info [ "kind" ] ~docv:"KIND" ~doc)

(* --- plans ---------------------------------------------------------------- *)

module Serve = Nvsc_serve
module Engine = Nvsc_sweep.Engine

(* [analyze], [run], [power], [place], [replay] and [sweep] build the
   daemon's plan for the request and execute it here, in-process, through
   the sweep engine; each cell's chunk is exactly what [nvscav client]
   would stream, so local and served reports agree by construction.
   [jobs] defaults to the machine's recommended domain count for every
   subcommand: the report is the same at every width.  The result cache,
   if any, is made only once the plan is valid. *)
let run_plan ?(jobs = Nvsc_team.Pool.default_jobs ()) ?make_cache
    ?(profile = Cli.Profile_off)
    ?(on_stats = ignore) planned =
  match planned with
  | Error (e : Serve.Protocol.error) -> `Error (false, e.message)
  | Ok (plan : Serve.Plan.t) ->
    with_trace_errors @@ fun () ->
    let cache = Option.map (fun make -> make ()) make_cache in
    with_profile profile @@ fun () ->
    let _, stats =
      Engine.run_specs ~jobs ?cache ?trace:plan.trace
        ~on_outcome:(fun i (o : Engine.outcome) ->
          print_string (Serve.Plan.chunk plan i o.payload))
        plan.specs
    in
    flush stdout;
    on_stats stats;
    `Ok ()

(* --- list -------------------------------------------------------------- *)

let list_cmd =
  let run () () =
    List.iter
      (fun (module A : Nvsc_apps.Workload.APP) ->
        let tag =
          if List.mem A.name Nvsc_apps.Apps.names then
            Printf.sprintf "paper footprint %.0fMB" A.paper_footprint_mb
          else "beyond the paper's set"
        in
        Format.fprintf fmt "%-8s %s (%s; %s)@." A.name A.description
          A.input_description tag)
      Nvsc_apps.Apps.extended;
    `Ok ()
  in
  let info =
    Cmd.info "list" ~doc:"List the instrumented mini-applications."
  in
  Cmd.v info Term.(ret (const run $ logs_term $ const ()))

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let run () app scale iterations profile =
    Logs.info (fun m ->
        m "running %s at scale %g for %d iterations" app scale iterations);
    run_plan ~profile
      (Serve.Plan.of_request
         (Serve.Protocol.Analyze { app; scale; iterations }))
  in
  let info =
    Cmd.info "analyze"
      ~doc:
        "Run an application through NV-Scavenger and report object metrics, \
         stack summary and per-iteration variance."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ Cli.profile))

(* --- stack ------------------------------------------------------------- *)

let stack_cmd =
  let run () name scale iterations =
    with_app name (fun app ->
        let r =
          Nvsc_core.Scavenger.run (scavenger_config ~scale ~iterations) app
        in
        Nvsc_core.Stack_analysis.pp_summary_table fmt
          [ Nvsc_core.Stack_analysis.summarize r ];
        Nvsc_core.Stack_analysis.pp_distribution fmt
          (Nvsc_core.Stack_analysis.distribution r))
  in
  let info =
    Cmd.info "stack"
      ~doc:"Stack-data analysis: fast whole-stack method plus per-routine \
            frames (slow method)."
  in
  Cmd.v info
    Term.(ret (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg))

(* --- traffic ------------------------------------------------------------ *)

let traffic_cmd =
  let run () name scale iterations =
    with_app name (fun app ->
        let r =
          Nvsc_core.Scavenger.run
            Nvsc_core.Scavenger.Config.(
              scavenger_config ~scale ~iterations |> with_trace true)
            app
        in
        Nvsc_core.Traffic_attribution.pp_report fmt
          (Nvsc_core.Traffic_attribution.analyze r))
  in
  let info =
    Cmd.info "traffic"
      ~doc:"Attribute main-memory traffic and burst energy to memory \
            objects: which data structures cost the most, and can they \
            move to NVRAM?"
  in
  Cmd.v info
    Term.(ret (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg))

(* --- trace ------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    let doc = "Output trace file (DRAMSim2 mase format)." in
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run () name scale iterations out =
    with_trace_errors @@ fun () ->
    with_app name (fun app ->
        let r =
          Nvsc_core.Scavenger.run
            Nvsc_core.Scavenger.Config.(
              scavenger_config ~scale ~iterations |> with_trace true)
            app
        in
        let trace = Option.get r.mem_trace in
        Nvsc_memtrace.Trace_file.save trace out;
        Format.fprintf fmt "wrote %d records (%d reads, %d writes) to %s@."
          (Nvsc_memtrace.Trace_log.length trace)
          (Nvsc_memtrace.Trace_log.reads trace)
          (Nvsc_memtrace.Trace_log.writes trace)
          out)
  in
  let info =
    Cmd.info "trace"
      ~doc:"Dump an application's cache-filtered main-memory trace to a \
            DRAMSim2-format file."
  in
  Cmd.v info
    Term.(
      ret (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
         $ out_arg))

(* --- power ------------------------------------------------------------- *)

let power_cmd =
  let from_file_arg =
    let doc =
      "Simulate a trace file (DRAMSim2 mase format) instead of running APP \
       (APP is still required for labelling)."
    in
    Arg.(value & opt (some string) None & info [ "from-file" ] ~docv:"FILE" ~doc)
  in
  let run () app scale iterations from_file profile =
    match from_file with
    | None -> run_plan ~profile (Serve.Plan.power ~app ~scale ~iterations)
    | Some path -> (
      (* a DRAMSim2 text trace comes with no application run to plan *)
      match find_app app with
      | Error msg -> `Error (false, msg)
      | Ok _ -> (
        with_trace_errors @@ fun () ->
        with_profile profile @@ fun () ->
        match Nvsc_memtrace.Trace_file.load path with
        | trace ->
          Nvsc_sweep.Cell.pp_power_of_trace fmt trace;
          `Ok ()
        | exception Failure msg -> `Error (false, msg)))
  in
  let info =
    Cmd.info "power"
      ~doc:"Memory power simulation over the cache-filtered trace (the \
            Table VI experiment for one application)."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ from_file_arg $ Cli.profile))

(* --- perf -------------------------------------------------------------- *)

let perf_cmd =
  let asymmetric_arg =
    let doc =
      "Print the runtimes with distinct read/write latencies and posted \
       writes instead of the paper's read-=-write lower bound."
    in
    Arg.(value & flag & info [ "asymmetric" ] ~doc)
  in
  let run () app scale asymmetric profile =
    run_plan ~profile (Serve.Plan.perf ~app ~scale ~asymmetric)
  in
  let info =
    Cmd.info "perf"
      ~doc:"Performance sensitivity to memory latency (the figure 12 \
            experiment for one application).  One pass over the \
            application accounts every technology under both write \
            models."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ asymmetric_arg
       $ Cli.profile))

(* --- place ------------------------------------------------------------- *)

let place_cmd =
  let run () app scale iterations tech profile =
    run_plan ~profile (Serve.Plan.place ~app ~scale ~iterations ~tech)
  in
  let info =
    Cmd.info "place"
      ~doc:"Plan a static hybrid DRAM/NVRAM placement from the profile and \
            assess the energy/performance consequences."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ tech_arg $ Cli.profile))

(* --- endurance ---------------------------------------------------------- *)

let endurance_cmd =
  let run () name scale iterations =
    with_app name (fun app ->
        let r =
          Nvsc_core.Scavenger.run
            Nvsc_core.Scavenger.Config.(
              scavenger_config ~scale ~iterations |> with_trace true)
            app
        in
        let trace = Option.get r.mem_trace in
        let line_bytes = 256 in
        let lines = 1 + (r.footprint_bytes / line_bytes) in
        let write_rate =
          float_of_int (Nvsc_memtrace.Trace_log.writes trace)
          /. float_of_int r.iterations *. 10. (* 10 steps/s sustained *)
        in
        let module B = Nvsc_memtrace.Sink.Batch in
        List.iter
          (fun tech_id ->
            let tech = Nvsc_nvram.Technology.get tech_id in
            let e = Nvsc_nvram.Endurance.create ~tech ~lines in
            Nvsc_memtrace.Trace_log.iter_slices trace (fun batch ~first ~n ->
                for i = first to first + n - 1 do
                  if B.is_write batch i then
                    Nvsc_nvram.Endurance.record_write e
                      ~line:(B.addr batch i / line_bytes mod lines)
                done);
            Format.fprintf fmt
              "%-8s imbalance %5.1fx  lifetime %12.2f years levelled / %12.3f \
               unlevelled@."
              tech.Nvsc_nvram.Technology.name
              (Nvsc_nvram.Endurance.wear_imbalance e)
              (Nvsc_nvram.Endurance.lifetime_years e ~write_rate_per_s:write_rate
                 ~wear_levelled:true)
              (Nvsc_nvram.Endurance.lifetime_years e ~write_rate_per_s:write_rate
                 ~wear_levelled:false))
          [ Nvsc_nvram.Technology.PCRAM; STTRAM; MRAM ])
  in
  let info =
    Cmd.info "endurance"
      ~doc:"Device-lifetime estimates from the application's write traffic."
  in
  Cmd.v info
    Term.(ret (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg))

(* --- sample ------------------------------------------------------------- *)

let sample_cmd =
  let period_arg =
    Arg.(value & opt int 10_000 & info [ "period" ] ~docv:"N"
           ~doc:"Sampling period in references.")
  in
  let length_arg =
    Arg.(value & opt int 100 & info [ "sample-length" ] ~docv:"N"
           ~doc:"References observed per period.")
  in
  let run () name scale iterations period sample_length =
    with_app name (fun app ->
        Nvsc_core.Extensions.pp_sampling fmt
          (Nvsc_core.Extensions.sampling_ablation ~period ~sample_length
             (Nvsc_core.Extensions.profile ~scale ~iterations app)))
  in
  let info =
    Cmd.info "sample"
      ~doc:"Measure what periodic sampling (the design §III-D rejects) \
            would lose for this application."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ period_arg $ length_arg))

(* --- hybrid -------------------------------------------------------------- *)

let hybrid_cmd =
  let tech_arg =
    Arg.(value & opt string "sttram"
           & info [ "tech" ] ~docv:"TECH" ~doc:"NVRAM half's technology.")
  in
  let run () name scale iterations tech_name =
    match Nvsc_nvram.Technology.nvram_of_string tech_name with
    | Error msg -> `Error (false, msg)
    | Ok tech ->
      with_app name (fun app ->
          Nvsc_core.Extensions.pp_hybrid_simulation fmt
            (Nvsc_core.Extensions.hybrid_simulation ~tech
               (Nvsc_core.Extensions.profile ~scale ~iterations app)))
  in
  let info =
    Cmd.info "hybrid"
      ~doc:"Simulate the hybrid DRAM+NVRAM memory system (the run the \
            paper's §V could not do): all-DRAM vs all-NVRAM vs hybrid at \
            equal capacity."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ tech_arg))

(* --- fine ---------------------------------------------------------------- *)

let fine_cmd =
  let window_arg =
    Arg.(value & opt int 100_000
           & info [ "window" ] ~docv:"REFS"
               ~doc:"References per placement decision.")
  in
  let run () name scale iterations window =
    with_app name (fun app ->
        Nvsc_core.Extensions.pp_fine_grained fmt
          (Nvsc_core.Extensions.fine_grained_placement ~window_refs:window
             (Nvsc_core.Extensions.profile ~scale ~iterations app)))
  in
  let info =
    Cmd.info "fine"
      ~doc:"Fine-time-granularity dynamic placement (the monitor §VII-C \
            calls for), one decision per reference window."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ window_arg))

(* --- tasks --------------------------------------------------------------- *)

let tasks_cmd =
  let tasks_arg =
    Arg.(value & opt int 4 & info [ "tasks" ] ~docv:"N" ~doc:"Simulated ranks.")
  in
  let imbalance_arg =
    Arg.(value & opt float 0.2
           & info [ "imbalance" ] ~docv:"F"
               ~doc:"Relative domain-decomposition imbalance across ranks.")
  in
  let run () name scale iterations tasks imbalance =
    with_app name (fun app ->
        let a =
          Nvsc_core.Multi_task.run ~tasks ~base_scale:scale ~iterations
            ~imbalance app
        in
        List.iter
          (fun (t : Nvsc_core.Multi_task.task_summary) ->
            Format.fprintf fmt
              "task %d (scale %.2f): footprint %a, stack ratio %.2f, share \
               %s@."
              t.task t.scale Nvsc_util.Units.pp_bytes t.footprint_bytes
              t.stack.Nvsc_core.Stack_analysis.rw_ratio
              (Nvsc_util.Table.cell_pct
                 t.stack.Nvsc_core.Stack_analysis.reference_pct))
          a.Nvsc_core.Multi_task.tasks;
        Nvsc_core.Multi_task.pp fmt a)
  in
  let info =
    Cmd.info "tasks"
      ~doc:"Multi-rank analysis: is one task's profile (the paper's \
            methodology) representative under load imbalance?"
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ tasks_arg $ imbalance_arg))

(* --- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let check_init_arg =
    let doc =
      "Also track per-byte heap initialisation and report reads of \
       never-written bytes."
    in
    Arg.(value & flag & info [ "check-init" ] ~doc)
  in
  let persist_arg =
    let doc =
      "Also run NVSC-Persist over the run: the crash-consistency checker \
       (flush/fence state per cache line, epoch balance) and the checks \
       of the persist set against the run's object profile (placement, \
       write intensity), with the flush/fence durability cost per memory \
       technology."
    in
    Arg.(value & flag & info [ "persist" ] ~doc)
  in
  let run () name scale iterations check_init persist profile =
    with_app name (fun app ->
        let module San = Nvsc_sanitizer.Diagnostic in
        (* exit only once the profile is written *)
        let clean =
          with_profile profile @@ fun () ->
          let report, persist_stats =
            Nvsc_core.Scavenger.lint ~scale ~iterations ~check_init ~persist
              app
          in
          Format.fprintf fmt "nvscav lint %s (scale %g, %d iterations)@." name
            scale iterations;
          San.pp_report fmt report;
          (match persist_stats with
          | Some s ->
            Format.fprintf fmt
              "persist: %d epoch(s), %d flush(es) covering %d line(s), %d \
               fence(s) over %d checked store(s)@."
              s.Nvsc_sanitizer.Persist_check.epochs s.flushes s.flushed_lines
              s.fences s.stores_checked;
            List.iter
              (fun (tech : Nvsc_nvram.Technology.t) ->
                if Nvsc_nvram.Technology.is_nvram tech then
                  Format.fprintf fmt "persist cost: %a@."
                    Nvsc_nvram.Persist_cost.pp
                    (Nvsc_nvram.Persist_cost.charge ~tech
                       ~flushed_lines:s.flushed_lines ~fences:s.fences))
              Nvsc_nvram.Technology.paper_set
          | None -> ());
          San.is_clean report
        in
        if not clean then exit 1)
  in
  let info =
    Cmd.info "lint"
      ~doc:
        "NVSC-San: statically lint the simulator configuration, then run \
         the application under the trace sanitizer (redzones, shadow \
         state, bounds-checked batches) and report every diagnostic. \
         With $(b,--persist), the same run also goes through NVSC-Persist, \
         which checks the app's epoch/flush/fence annotations and its \
         persist set. Exits non-zero if anything is found."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ check_init_arg $ persist_arg $ Cli.profile))

(* --- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let from_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-trace" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded $(b,.nvt) trace instead of running the \
             applications; the matrix is pinned to the trace's application, \
             scale and iterations, and the cache keys on the trace's \
             content digest.")
  in
  let run () scale iterations jobs cache_dir cache_max apps kinds techs
      overrides from_trace profile =
    run_plan ?jobs
      ?make_cache:
        (Option.map
           (fun dir () -> Nvsc_sweep.Cache.create ~dir ?max_entries:cache_max ())
           cache_dir)
      ~profile
      ~on_stats:(Format.eprintf "%a@." Engine.pp_stats)
      (Serve.Plan.of_request
         (Serve.Protocol.Sweep
            { apps; kinds; techs; scale; iterations; overrides; from_trace }))
  in
  let info =
    Cmd.info "sweep"
      ~doc:
        "Run an experiment matrix (applications × analysis kinds × \
         configuration) on a pool of worker domains, memoizing each cell \
         in an on-disk content-addressed cache.  The aggregated report is \
         byte-identical regardless of $(b,--jobs); cache statistics go to \
         standard error."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ scale_arg $ iterations_arg $ Cli.jobs
       $ Cli.cache_dir $ Cli.cache_max $ Cli.apps $ Cli.kinds $ Cli.techs
       $ Cli.overrides $ from_trace_arg $ Cli.profile))

(* --- checkpoint ---------------------------------------------------------- *)

let checkpoint_cmd =
  let mtbf_arg =
    Arg.(value & opt float 21600. & info [ "mtbf" ] ~docv:"SECONDS"
           ~doc:"Machine mean time between failures (default 6h).")
  in
  let size_arg =
    Arg.(value & opt int (8 * 1024 * 1024 * 1024)
           & info [ "size" ] ~docv:"BYTES"
               ~doc:"Checkpoint size per node (default 8 GiB).")
  in
  let run () mtbf size =
    let module CP = Nvsc_placement.Checkpoint in
    let targets =
      CP.parallel_fs ()
      :: List.map
           (fun id -> CP.nvram_local (Nvsc_nvram.Technology.get id))
           [ Nvsc_nvram.Technology.PCRAM; STTRAM; MRAM ]
    in
    List.iter
      (fun target ->
        let delta = CP.checkpoint_time_s target ~size_bytes:size in
        Format.fprintf fmt
          "%-14s checkpoint %a  optimal interval %a  efficiency %.1f%%@."
          target.CP.name Nvsc_util.Units.pp_ns (delta *. 1e9)
          Nvsc_util.Units.pp_ns
          (CP.young_interval_s ~checkpoint_time_s:delta ~mtbf_s:mtbf *. 1e9)
          (100. *. CP.efficiency ~checkpoint_time_s:delta ~mtbf_s:mtbf))
      targets;
    `Ok ()
  in
  let info =
    Cmd.info "checkpoint"
      ~doc:"Checkpoint-to-NVRAM study (the paper's §I motivation): \
            checkpoint time, Young-optimal interval and machine efficiency \
            per target."
  in
  Cmd.v info Term.(ret (const run $ logs_term $ mtbf_arg $ size_arg))

(* --- run ----------------------------------------------------------------- *)

(* The whole pipeline in one command: three cells (objects, power, place)
   fed by one scavenger run with a cache-filtered trace.  Exercises every
   instrumented layer, so [--profile=FILE] here yields a trace covering
   scavenger, cachesim, dramsim, placement and sweep spans. *)
let run_cmd =
  let run () app scale iterations jobs tech profile =
    (* --jobs is the width of the run's pool: the cache filter overlaps
       the application on its second domain, and the technology
       comparison spreads over all of them *)
    run_plan ?jobs ~profile
      (Serve.Plan.of_request
         (Serve.Protocol.Run { app; scale; iterations; tech }))
  in
  let info =
    Cmd.info "run"
      ~doc:
        "Run the full pipeline on one application: object analysis, memory \
         power comparison over the cache-filtered trace, and a hybrid \
         placement plan.  With $(b,--profile) the per-layer span profile \
         goes to standard error; $(b,--profile)=$(i,FILE) also writes a \
         Chrome-trace JSON."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ Cli.jobs $ tech_arg $ Cli.profile))

(* --- record -------------------------------------------------------------- *)

let record_cmd =
  let out_arg =
    let doc = "Output trace file (NVT binary format)." in
    Arg.(
      required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let chunk_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunk-capacity" ] ~docv:"REFS"
          ~doc:"References per chunk (default 65536).")
  in
  let run () name scale iterations out chunk_capacity profile =
    with_trace_errors @@ fun () ->
    with_app name (fun app ->
        with_profile profile @@ fun () ->
        let s =
          Nvsc_core.Trace_run.record ?chunk_capacity ~scale ~iterations
            ~path:out app
        in
        Format.fprintf fmt
          "recorded %d references (%d reads, %d writes) in %d chunks to %s@."
          s.Nvsc_memtrace.Trace_codec.refs s.reads s.writes s.chunks out;
        Format.fprintf fmt "%a on disk (%.2f bytes/ref), digest %s@."
          Nvsc_util.Units.pp_bytes s.bytes
          (float_of_int s.bytes /. float_of_int (max 1 s.refs))
          s.digest)
  in
  let info =
    Cmd.info "record"
      ~doc:
        "Run an application once and record its raw emission stream — every \
         reference with emission-time object attribution, instruction counts \
         and phase markers — to a chunked binary $(b,.nvt) trace.  Any \
         $(b,nvscav replay) analysis (and $(b,sweep --from-trace)) then \
         reproduces the live pipeline's reports byte-for-byte without \
         re-running the application."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ app_arg $ scale_arg $ iterations_arg
       $ out_arg $ chunk_arg $ Cli.profile))

(* --- replay -------------------------------------------------------------- *)

let replay_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Recorded $(b,.nvt) trace file.")
  in
  let run () path kind jobs tech profile =
    run_plan ?jobs ~profile
      (Serve.Plan.of_request (Serve.Protocol.Replay { path; kind; tech }))
  in
  let info =
    Cmd.info "replay"
      ~doc:
        "Stream a recorded $(b,.nvt) trace through an analysis without \
         re-running the application.  Replayed reports are byte-identical \
         to their live counterparts: $(b,--kind run) matches $(b,nvscav \
         run), $(b,objects) matches $(b,analyze), $(b,power)/$(b,place) \
         match $(b,power)/$(b,place); $(b,perf) matches $(b,perf) for a \
         trace recorded with its scale at 1 iteration.  The analyses of a \
         $(b,run) replay share one pass over the trace.  Memory use is \
         bounded by the trace's chunk capacity, not its length."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ trace_arg $ replay_kind_arg $ Cli.jobs
       $ tech_arg $ Cli.profile))

(* --- crashsim ------------------------------------------------------------- *)

let crashsim_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Recorded v2 $(b,.nvt) trace file.")
  in
  let run () path =
    with_trace_errors @@ fun () ->
    let module PC = Nvsc_sanitizer.Persist_check in
    let module San = Nvsc_sanitizer.Diagnostic in
    let failing = ref [] in
    let whole, chk =
      PC.replay path ~at_boundary:(fun k report ->
          if San.errors report > 0 then failing := (k, report) :: !failing)
    in
    let boundaries = PC.epoch_boundaries chk in
    Format.fprintf fmt "nvscav crashsim %s: %d epoch boundarie(s)@." path
      boundaries;
    Format.fprintf fmt "whole trace: ";
    San.pp_report fmt whole;
    List.iter
      (fun (k, report) ->
        Format.fprintf fmt "crash at boundary %d: %d error(s)@." k
          (San.errors report);
        San.pp_report fmt report)
      (List.rev !failing);
    let inconsistent =
      List.length !failing + if San.errors whole > 0 then 1 else 0
    in
    Format.fprintf fmt
      "crashsim: %d crash point(s) checked, %d inconsistent@." boundaries
      inconsistent;
    if inconsistent > 0 then exit 1;
    `Ok ()
  in
  let info =
    Cmd.info "crashsim"
      ~doc:
        "Crash-injection sweep over a recorded $(b,.nvt) trace: replay the \
         whole trace once through the NVSC-Persist checker, and check every \
         epoch boundary as a simulated crash point — the stream logically \
         truncated there.  An application whose checkpoints are correctly \
         flushed and fenced is consistent at every crash point.  Exits \
         non-zero otherwise."
  in
  Cmd.v info Term.(ret (const run $ logs_term $ trace_arg))

(* --- serve ---------------------------------------------------------------- *)

let socket_arg =
  let doc =
    "Unix-domain socket path (default $(b,nvscav.sock)); for $(b,serve), \
     where to listen, for $(b,client), where the daemon is."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Loopback TCP port (instead of, or in addition to, the socket)." in
  Arg.(
    value
    & opt (some (Cli.min_int_conv ~what:"port" ~min:1 ())) None
    & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let max_queue_arg =
    Arg.(
      value
      & opt (Cli.min_int_conv ~what:"max-queue" ~min:1 ()) 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Bound on concurrently admitted analysis requests.")
  in
  let run () socket port jobs cache_dir cache_max max_queue profile =
    (* With only --port given, listen on TCP alone; otherwise a Unix
       socket is always bound (the client's default rendezvous). *)
    let socket =
      match (socket, port) with
      | None, Some _ -> None
      | s, _ -> Some (Option.value s ~default:Serve.Client.default_socket)
    in
    let cfg =
      {
        Serve.Server.socket;
        port;
        jobs;
        cache_dir;
        cache_max;
        max_queue;
        max_frame = Nvsc_util.Json.Lines.default_max_frame;
      }
    in
    match Serve.Server.start cfg with
    | exception Failure msg -> `Error (false, msg)
    | t ->
      List.iter
        (fun s ->
          Sys.set_signal s
            (Sys.Signal_handle (fun _ -> Serve.Server.request_stop t)))
        [ Sys.sigint; Sys.sigterm ];
      Format.eprintf "nvscav serve: listening on %s@."
        (String.concat ", " (Serve.Server.endpoints t));
      with_profile profile (fun () -> Serve.Server.await t);
      Format.eprintf "nvscav serve: stopped@.";
      `Ok ()
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the resident analysis daemon: a shared pool of worker domains \
         and a shared warm result cache behind a newline-delimited-JSON \
         socket protocol.  Clients ($(b,nvscav client ...)) stream report \
         chunks as cells complete; repeated requests are served from \
         cache.  SIGINT/SIGTERM drain in-flight requests and remove the \
         socket file."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ socket_arg $ port_arg $ Cli.jobs
       $ Cli.cache_dir $ Cli.cache_max $ max_queue_arg $ Cli.profile))

(* --- client --------------------------------------------------------------- *)

let with_client ~socket ~port f =
  match Serve.Client.connect ?socket ?port () with
  | Error msg -> `Error (false, msg)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* Progress chunks go to stdout verbatim — concatenated they are
   byte-identical to the local subcommand's report — and the cache
   accounting goes to stderr, mirroring [sweep]'s stats line. *)
let client_request c req =
  match Serve.Client.request ~on_output:print_string c req with
  | Error msg -> `Error (false, msg)
  | Ok (reply : Serve.Client.reply) ->
    flush stdout;
    Format.eprintf "serve: cells=%d hits=%d misses=%d@." reply.cells
      reply.hits reply.misses;
    `Ok ()

let client_analyze_cmd =
  let run () socket port name scale iterations =
    with_client ~socket ~port @@ fun c ->
    client_request c (Serve.Protocol.Analyze { app = name; scale; iterations })
  in
  let info =
    Cmd.info "analyze"
      ~doc:
        "Remote $(b,nvscav analyze): same report, byte-identical, served \
         from the daemon's warm cache when possible."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ socket_arg $ port_arg $ app_arg $ scale_arg
       $ iterations_arg))

let client_run_cmd =
  let run () socket port name scale iterations tech =
    with_client ~socket ~port @@ fun c ->
    client_request c (Serve.Protocol.Run { app = name; scale; iterations; tech })
  in
  let info = Cmd.info "run" ~doc:"Remote $(b,nvscav run), byte-identical." in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ socket_arg $ port_arg $ app_arg $ scale_arg
       $ iterations_arg $ tech_arg))

let client_replay_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Recorded $(b,.nvt) trace file, resolved on the $(i,server)'s \
             filesystem.")
  in
  let run () socket port path kind tech =
    with_client ~socket ~port @@ fun c ->
    client_request c (Serve.Protocol.Replay { path; kind; tech })
  in
  let info =
    Cmd.info "replay" ~doc:"Remote $(b,nvscav replay), byte-identical."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ socket_arg $ port_arg $ trace_arg
       $ replay_kind_arg $ tech_arg))

let client_sweep_cmd =
  let from_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-trace" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded $(b,.nvt) trace (server-side path) instead \
             of running the applications.")
  in
  let run () socket port scale iterations apps kinds techs overrides
      from_trace =
    with_client ~socket ~port @@ fun c ->
    client_request c
      (Serve.Protocol.Sweep
         { apps; kinds; techs; scale; iterations; overrides; from_trace })
  in
  let info =
    Cmd.info "sweep"
      ~doc:
        "Remote $(b,nvscav sweep): the matrix runs on the daemon's shared \
         pool and cache, so concurrent clients never recompute each \
         other's cells."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ logs_term $ socket_arg $ port_arg $ scale_arg
       $ iterations_arg $ Cli.apps $ Cli.kinds $ Cli.techs $ Cli.overrides
       $ from_trace_arg))

let client_stats_cmd =
  let strip_time_arg =
    Arg.(
      value & flag
      & info [ "strip-time" ]
          ~doc:
            "Drop wall-clock ($(b,_ns)) readings from the metrics snapshot \
             for reproducible output.")
  in
  let run () socket port strip_time =
    with_client ~socket ~port @@ fun c ->
    match
      Serve.Client.request c (Serve.Protocol.Stats { strip_time })
    with
    | Error msg -> `Error (false, msg)
    | Ok reply ->
      (match reply.Serve.Client.result with
      | Some json -> print_endline (Nvsc_util.Json.to_string json)
      | None -> ());
      `Ok ()
  in
  let info =
    Cmd.info "stats"
      ~doc:
        "The daemon's state and metrics registry as one JSON object: \
         connections, in-flight requests, cache hit/miss/eviction \
         counters, pool depth."
  in
  Cmd.v info
    Term.(ret (const run $ logs_term $ socket_arg $ port_arg $ strip_time_arg))

let client_ping_cmd =
  let run () socket port =
    with_client ~socket ~port @@ fun c ->
    match Serve.Client.request c Serve.Protocol.Ping with
    | Error msg -> `Error (false, msg)
    | Ok _ -> print_endline "pong"; `Ok ()
  in
  let info = Cmd.info "ping" ~doc:"Liveness probe." in
  Cmd.v info Term.(ret (const run $ logs_term $ socket_arg $ port_arg))

let client_shutdown_cmd =
  let run () socket port =
    with_client ~socket ~port @@ fun c ->
    match Serve.Client.request c Serve.Protocol.Shutdown with
    | Error msg -> `Error (false, msg)
    | Ok _ ->
      Format.eprintf "serve: shutdown requested@.";
      `Ok ()
  in
  let info =
    Cmd.info "shutdown"
      ~doc:"Ask the daemon to drain in-flight requests and exit."
  in
  Cmd.v info Term.(ret (const run $ logs_term $ socket_arg $ port_arg))

let client_cmd =
  let doc =
    "Talk to a running $(b,nvscav serve) daemon.  Reports stream to \
     standard output and are byte-identical to the corresponding local \
     subcommand; cache accounting ($(b,serve: cells=... hits=... \
     misses=...)) goes to standard error."
  in
  Cmd.group (Cmd.info "client" ~doc)
    [
      client_analyze_cmd; client_run_cmd; client_replay_cmd; client_sweep_cmd;
      client_stats_cmd; client_ping_cmd; client_shutdown_cmd;
    ]

let main_cmd =
  let doc = "NV-Scavenger: NVRAM opportunity analysis for HPC applications" in
  let info = Cmd.info "nvscav" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      list_cmd; run_cmd; analyze_cmd; stack_cmd; trace_cmd; power_cmd;
      perf_cmd; place_cmd; hybrid_cmd; endurance_cmd; sample_cmd; tasks_cmd;
      traffic_cmd; fine_cmd; lint_cmd;
      sweep_cmd; checkpoint_cmd; record_cmd; replay_cmd; crashsim_cmd;
      serve_cmd; client_cmd;
    ]

(* Exit codes, uniformly: 0 success, 2 usage error (bad flags, unknown
   names, unreadable inputs — message on stderr), 125 unexpected
   exception.  Cmdliner's defaults (124/125) leak parse errors as 124
   and let domain validation escape as uncaught exceptions; mapping
   [eval_value] ourselves pins the contract down. *)
let () =
  match Cmd.eval_value main_cmd with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
