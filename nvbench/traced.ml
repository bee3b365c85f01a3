(* traced.exe WORKLOAD VARIANT — one repetition of the traced pass: the
   workload's own traffic driven in process through each layer's public
   functions, every call timed from outside.  Nothing inside the program
   is instrumented; the spans are the harness's.  nvbench.exe runs it as
   a child, so the harness itself stays small (a child's peak RSS, as
   wait4 reports it, counts the parent's resident set at spawn time).
   Prints one JSON object: [values] (every per-layer metric but the
   [Spec.reconciled] ones), [problems] and [spans]. *)

open Nvbench_lib
module Ctx = Nvsc_appkit.Ctx
module Mem_object = Nvsc_memtrace.Mem_object
module Sink = Nvsc_memtrace.Sink
module Trace_log = Nvsc_memtrace.Trace_log
module Trace_codec = Nvsc_memtrace.Trace_codec
module Hierarchy = Nvsc_cachesim.Hierarchy
module Cache = Nvsc_cachesim.Cache
module Memory_system = Nvsc_dramsim.Memory_system
module Technology = Nvsc_nvram.Technology
module Scavenger = Nvsc_core.Scavenger
module Cell = Nvsc_sweep.Cell

let now_ns = Child.now_ns
let timed = Spans.timed
let record = Spans.record

(* --- one repetition ------------------------------------------------------ *)

let app_of name = Option.get (Nvsc_apps.Apps.find name)

let is_main = function Mem_object.Main _ -> true | Pre | Post -> false

(* Run [app] on a fresh context whose one sink is [sink ctx]; returns the
   references the application emitted. *)
let run_app (module A : Nvsc_apps.Workload.APP) ~scale ~iterations ~sink =
  let ctx = Ctx.create () in
  Ctx.add_sink ctx (Sink.create ~name:"cache-hierarchy" (sink ctx));
  A.run ~scale ctx ~iterations;
  Ctx.flush_refs ctx;
  let refs = (Ctx.pipeline_stats ctx).refs in
  Ctx.release ctx;
  refs

(* Stream an NVT trace, handing every reference slice to [on_refs] with
   whether it was emitted in the main loop; returns the references and
   slices delivered. *)
let decode path ~on_refs =
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let in_main = ref false and refs = ref 0 and slices = ref 0 in
  Trace_codec.stream r
    ~on_phase:(fun p -> in_main := is_main p)
    ~on_refs:(fun b ~obj_ids:_ ~first ~n ->
      incr slices;
      refs := !refs + n;
      on_refs ~in_main:!in_main b ~first ~n)
    ();
  (!refs, !slices)

(* The hybrid placement [nvscav run] plans for a result. *)
let place ~tech (r : Scavenger.result) =
  let items =
    List.map
      (fun (m : Nvsc_core.Object_metrics.t) ->
        {
          Nvsc_placement.Item.id = m.obj.Mem_object.id;
          name = m.obj.Mem_object.name;
          size_bytes = Nvsc_core.Object_metrics.size_bytes m;
          reads = m.reads;
          writes = m.writes;
          ref_share = m.ref_share;
        })
      (Scavenger.global_and_heap_metrics r)
  in
  let hybrid =
    Nvsc_placement.Hybrid_memory.create
      ~dram_bytes:(2 * r.footprint_bytes)
      ~nvram_bytes:(2 * r.footprint_bytes)
      ~tech
  in
  Nvsc_placement.Hybrid_memory.assess
    (Nvsc_placement.Static_policy.plan ~hybrid items)

(* A warm round trip to a resident daemon serving [app] from its cache. *)
let serve_roundtrip_us ~scratch app =
  let module Serve = Nvsc_serve in
  let socket = Filename.concat scratch "serve.sock" in
  let server =
    Serve.Server.start
      {
        Serve.Server.default with
        socket = Some socket;
        jobs = Some 1;
        cache_dir = Some (Filename.concat scratch "serve-cache");
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let c =
    match Serve.Client.connect ~socket () with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let request () =
    match
      Serve.Client.request ~on_output:ignore c
        (Serve.Protocol.Analyze { app; scale = 0.1; iterations = 1 })
    with
    | Ok _ -> ()
    | Error msg -> failwith msg
  in
  request ();
  Sample_stats.median
    (List.init 21 (fun _ ->
         let t0 = now_ns () in
         request ();
         float_of_int (now_ns () - t0) /. 1e3))

(* One repetition over [w]'s traffic; [variant] names the placement's
   NVRAM technology.  The replay workload's set-up trace must exist.
   Returns every per-layer metric but the [Spec.reconciled] ones, and the
   problems found: alternative paths whose outputs disagree. *)
let rep (w : Spec.workload) ~variant ~scratch =
  let acc = Hashtbl.create 64 in
  let get k = Option.value ~default:0. (Hashtbl.find_opt acc k) in
  let add k v = Hashtbl.replace acc k (get k +. v) in
  let addi k v = add k (float_of_int v) in
  let problems = ref [] in
  let tech =
    Option.value (Technology.of_string variant)
      ~default:(Technology.get Technology.STTRAM)
  in
  List.iter
    (fun (name, scale, iterations) ->
      let app = app_of name in
      let log = Trace_log.create () in
      let h = Hierarchy.create ~sink:(Trace_log.sink ~name:"trace-log" log) () in
      let main_refs = ref 0 in
      let filter b ~first ~n =
        Hierarchy.consume h b ~first ~n;
        main_refs := !main_refs + n
      in
      let nvt_pass path =
        let (refs, slices), s =
          timed "memtrace.nvt" (fun () ->
              decode path ~on_refs:(fun ~in_main:_ _ ~first:_ ~n:_ -> ()))
        in
        add "memtrace.nvt.time_s" s;
        addi "nvt.refs" refs;
        addi "nvt.slices" slices;
        s
      in
      let filter_s =
        if not w.replay then begin
          (* appkit generation feeding the cache filter as Scavenger.run
             wires it; every filter call (a whole emission batch) is
             timed, and appkit keeps the rest *)
          let filter_ns = ref 0 in
          let refs, app_s =
            timed "appkit" (fun () ->
                run_app app ~scale ~iterations
                  ~sink:(fun ctx b ~first ~n ->
                    if is_main (Ctx.phase ctx) then begin
                      let t0 = now_ns () in
                      filter b ~first ~n;
                      filter_ns := !filter_ns + (now_ns () - t0)
                    end))
          in
          let filter_s = float_of_int !filter_ns *. 1e-9 in
          addi "appkit.refs" refs;
          add "appkit.time_s" (app_s -. filter_s);
          filter_s
        end
        else begin
          (* the replay workload's filter is fed by the NVT decoder in
             slices of a few references, too short to time one by one:
             the filter's share is a decode-and-filter pass minus a
             decode-only pass *)
          let refs, app_s =
            timed "appkit" (fun () ->
                run_app app ~scale ~iterations ~sink:(fun _ _ ~first:_ ~n:_ -> ()))
          in
          addi "appkit.refs" refs;
          add "appkit.time_s" app_s;
          let decode_s = nvt_pass (Spec.nvt_path w) in
          let _, s =
            timed "cachesim.filter" (fun () ->
                decode (Spec.nvt_path w) ~on_refs:(fun ~in_main b ~first ~n ->
                    if in_main then filter b ~first ~n))
          in
          s -. decode_s
        end
      in
      addi "appkit.main_refs" !main_refs;
      let (), drain_s = timed "cachesim.drain" (fun () -> Hierarchy.drain h) in
      add "cachesim.time_s" (filter_s +. drain_s);
      addi "cachesim.txns" (Trace_log.length log);
      let l1 = Hierarchy.l1d h and l2 = Hierarchy.l2 h in
      addi "l1.misses" (Cache.misses l1);
      addi "l1.accesses" (Cache.hits l1 + Cache.misses l1);
      addi "l2.misses" (Cache.misses l2);
      addi "l2.accesses" (Cache.hits l2 + Cache.misses l2);

      (* dramsim: the CLI's serial comparison; each technology's share is
         the interval from its replay's start to the next one's *)
      let techs = Technology.paper_set in
      let replay_starts = ref [] in
      let simulate ?(jobs = 1) ?(bank_shards = 1) ~mark () =
        Memory_system.compare_technologies ~jobs ~bank_shards ~techs
          ~replay:(fun sink ->
            if mark then replay_starts := now_ns () :: !replay_starts;
            Trace_log.replay_batch log sink)
          ()
      in
      let serial, compare_s =
        timed "dramsim" (fun () ->
            let results = simulate ~mark:true () in
            let stop_ns = now_ns () in
            let starts = Array.of_list (List.rev !replay_starts) in
            List.iteri
              (fun i ((t : Technology.t), (st : Nvsc_dramsim.Controller.stats)) ->
                let stop_ns =
                  if i + 1 < Array.length starts then starts.(i + 1) else stop_ns
                in
                let key = String.lowercase_ascii t.name in
                record ("dramsim." ^ key) ~start_ns:starts.(i) ~stop_ns;
                add (key ^ ".ns") (float_of_int (stop_ns - starts.(i)));
                addi (key ^ ".row_hits") st.row_hits;
                addi (key ^ ".accesses") st.accesses)
              results;
            results)
      in
      add "dramsim.compare_s" compare_s;
      let check label results =
        if results <> serial then
          problems :=
            Printf.sprintf "%s: %s stats differ from the serial comparison"
              name label
            :: !problems
      in
      let jobs2, s = timed "dramsim.jobs2" (fun () -> simulate ~jobs:2 ~mark:false ()) in
      add "dramsim.compare_s.jobs2" s;
      check "jobs=2" jobs2;
      let team2, s =
        timed "dramsim.team2" (fun () -> simulate ~bank_shards:2 ~mark:false ())
      in
      add "dramsim.compare_s.team2" s;
      check "bank_shards=2" team2;

      (* the fused live pipeline, serial and with a 2-shard filter *)
      let config =
        Scavenger.Config.(
          default |> with_scale scale |> with_iterations iterations
          |> with_trace true)
      in
      let r, s = timed "core.scavenger" (fun () -> Scavenger.run config app) in
      add "core.scavenger_s" s;
      let _, s =
        timed "core.scavenger.shards2" (fun () ->
            Scavenger.run (Scavenger.Config.with_shards 2 config) app)
      in
      add "core.scavenger_s.shards2" s;
      let (), s =
        timed "core.analysis" (fun () ->
            ignore (Sys.opaque_identity (Nvsc_core.Object_analysis.analyze r));
            ignore (Sys.opaque_identity (Nvsc_core.Stack_analysis.summarize r));
            ignore (Sys.opaque_identity (Nvsc_core.Usage_variance.variance r)))
      in
      add "core.analysis_ms" (s *. 1e3);
      let _, s = timed "placement" (fun () -> place ~tech r) in
      add "placement.us" (s *. 1e6);

      (* memtrace.nvt: record the application, then decode the recording
         (unless the set-up trace was decoded above) and replay the
         workload's trace through the fused replay pipeline *)
      let path = Filename.concat scratch ("traced-" ^ name ^ ".nvt") in
      let summary, s =
        timed "memtrace.nvt.record" (fun () ->
            Nvsc_core.Trace_run.record ~scale ~iterations ~path app)
      in
      add "record.s" s;
      addi "record.refs" summary.Trace_codec.refs;
      if not w.replay then ignore (nvt_pass path);
      let replayed, s =
        timed "core.replay" (fun () ->
            Nvsc_core.Trace_run.replay (if w.replay then Spec.nvt_path w else path))
      in
      add "core.replay_s" s;
      Sys.remove path;
      if
        Trace_log.length (Option.get replayed.mem_trace) <> Trace_log.length log
      then
        problems :=
          Printf.sprintf "%s: the replayed trace filters to a different length"
            name
          :: !problems;

      (* cpusim: the figure-12 sensitivity replay at the quick perf scale *)
      let points, s =
        timed "cpusim" (fun () ->
            Nvsc_cpusim.Sensitivity.run
              ~replay:(Nvsc_core.Experiment.perf_replay ~scale:0.25 app)
              ())
      in
      add "cpusim.time_s" s;
      List.iter
        (fun (p : Nvsc_cpusim.Sensitivity.point) ->
          addi "cpusim.accesses" p.report.mem_accesses)
        points)
    w.apps;

  (* sweep: the quick experiments matrix restricted to the workload's
     applications, cell by cell, then on a 2-domain pool *)
  let apps = List.map (fun (a, _, _) -> a) w.apps in
  let matrix =
    let m =
      Nvsc_sweep.Engine.experiments_matrix
        ~config:Nvsc_core.Experiment.quick_config
    in
    { m with Nvsc_sweep.Matrix.apps = List.filter (fun a -> List.mem a apps) m.apps }
  in
  List.iter
    (fun (spec : Cell.spec) ->
      let span = "sweep.cell." ^ Cell.kind_to_string spec.kind in
      let _, s = timed span (fun () -> Cell.execute spec) in
      add (span ^ "_s") s;
      add "sweep.busy_s" s)
    (Nvsc_sweep.Matrix.cells matrix);
  let _, s = timed "sweep.jobs2" (fun () -> Nvsc_sweep.Engine.run ~jobs:2 matrix) in
  add "sweep.wall_s.jobs2" s;

  let serve_us, _ =
    timed "serve" (fun () -> serve_roundtrip_us ~scratch (Spec.first_app w))
  in

  (* ratios, and the layer budget of the workload's own path: generation
     and filter, or the fused replay (decode, attribution and filter),
     then the DRAM comparison, analysis and placement; the experiments
     run is its sweep on two domains *)
  let per a b = if get b = 0. then 0. else get a /. get b in
  let ns_per a b = per a b *. 1e9 in
  let layers_sum =
    match (w.program, w.replay) with
    | Spec.Experiments, _ -> get "sweep.wall_s.jobs2"
    | Nvscav, replay ->
      (if replay then get "core.replay_s"
       else get "appkit.time_s" +. get "cachesim.time_s")
      +. get "dramsim.compare_s"
      +. (get "core.analysis_ms" *. 1e-3)
      +. (get "placement.us" *. 1e-6)
  in
  let derived =
    [
      ("appkit.ns_per_ref", ns_per "appkit.time_s" "appkit.refs");
      ("cachesim.ns_per_ref", ns_per "cachesim.time_s" "appkit.main_refs");
      ("cachesim.l1_miss_rate", per "l1.misses" "l1.accesses");
      ("cachesim.l2_miss_rate", per "l2.misses" "l2.accesses");
      ("memtrace.nvt.ns_per_ref", ns_per "memtrace.nvt.time_s" "nvt.refs");
      ("memtrace.nvt.refs_per_slice", per "nvt.refs" "nvt.slices");
      ("memtrace.nvt.record_ns_per_ref", ns_per "record.s" "record.refs");
      ("cpusim.ns_per_access", ns_per "cpusim.time_s" "cpusim.accesses");
      ( "sweep.efficiency",
        get "sweep.busy_s" /. (2. *. get "sweep.wall_s.jobs2") );
      ("serve.warm_roundtrip_us", serve_us);
      ("pipeline.layers_sum_s", layers_sum);
    ]
    @ List.concat_map
        (fun t ->
          [
            ( Printf.sprintf "dramsim.%s.ns_per_txn" t,
              per (t ^ ".ns") "cachesim.txns" );
            ( Printf.sprintf "dramsim.%s.row_hit_rate" t,
              per (t ^ ".row_hits") (t ^ ".accesses") );
          ])
        Spec.techs
  in
  List.iter (fun (k, v) -> Hashtbl.replace acc k v) derived;
  ( List.filter_map
      (fun (m : Spec.metric) ->
        if List.mem m.name Spec.reconciled then None
        else
          match Hashtbl.find_opt acc m.name with
          | Some v -> Some (m.name, v)
          | None -> invalid_arg ("Traced.rep: no value for " ^ m.name))
      Spec.per_layer,
    !problems )

let () =
  let module J = Nvsc_util.Json in
  match Sys.argv with
  | [| _; name; variant |] ->
    let w = Option.get (Spec.find_workload name) in
    let values, problems = rep w ~variant ~scratch:".nvbench" in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("values", J.Obj (List.map (fun (k, v) -> (k, J.float v)) values));
              ("problems", J.List (List.map (fun p -> J.Str p) problems));
              ("spans", Spans.to_json ());
            ]))
  | _ ->
    prerr_endline "usage: traced.exe WORKLOAD VARIANT";
    exit 2
