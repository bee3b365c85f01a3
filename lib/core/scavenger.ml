module Ctx = Nvsc_appkit.Ctx
module Layout = Nvsc_memtrace.Layout
module Mem_object = Nvsc_memtrace.Mem_object
module Trace_log = Nvsc_memtrace.Trace_log
module Sink = Nvsc_memtrace.Sink
module Stage = Nvsc_memtrace.Stage
module Hierarchy = Nvsc_cachesim.Hierarchy
module Cache = Nvsc_cachesim.Cache
module Span = Nvsc_obs.Span
module Metrics = Nvsc_obs.Metrics

type result = {
  app_name : string;
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  iterations : int;
  scale : float;
  footprint_bytes : int;
  total_main_refs : int;
  metrics : Object_metrics.t list;
  fast_tallies : Ctx.fast_tally array;
  mem_trace : Trace_log.t option;
  l1_miss_rate : float;
  l2_miss_rate : float;
  unattributed : int;
  sanitizer : Nvsc_sanitizer.Diagnostic.report option;
  persist_report : Nvsc_sanitizer.Diagnostic.report option;
  persist_stats : Nvsc_sanitizer.Persist_check.stats option;
}

module Config = struct
  type t = {
    scale : float;
    iterations : int;
    with_trace : bool;
    sampling : (int * int) option;
    batch_capacity : int option;
    sanitize : bool;
    check_init : bool;
    persist : bool;
  }

  let default =
    {
      scale = 1.0;
      iterations = 10;
      with_trace = false;
      sampling = None;
      batch_capacity = None;
      sanitize = false;
      check_init = false;
      persist = false;
    }

  let with_scale scale t = { t with scale }
  let with_iterations iterations t = { t with iterations }
  let with_trace with_trace t = { t with with_trace }

  let with_sampling ~period ~sample_length t =
    { t with sampling = Some (period, sample_length) }

  let with_batch_capacity capacity t =
    { t with batch_capacity = Some capacity }

  let with_sanitize ?(check_init = false) sanitize t =
    { t with sanitize; check_init }

  let with_persist persist t = { t with persist }

  let with_shards shards t =
    if shards < 1 then invalid_arg "Config.with_shards: shards must be >= 1";
    t
end

(* Redzone width used when sanitising: wide enough that a word-sized
   overrun of any object lands inside it, narrow enough not to distort
   the synthetic layout. *)
let sanitizer_redzone_words = 8

(* Registry metrics the run feeds: one deterministic snapshot replaces the
   counters previously scattered over Ctx.pipeline_stats and the
   sanitizer report (DESIGN.md "Observability"). *)
let m_runs = Metrics.counter "scavenger.runs"
let m_refs = Metrics.counter "scavenger.pipeline.refs"
let m_batches = Metrics.counter "scavenger.pipeline.batches"
let m_capacity_flushes = Metrics.counter "scavenger.pipeline.capacity_flushes"
let m_boundary_flushes = Metrics.counter "scavenger.pipeline.boundary_flushes"
let m_unattributed = Metrics.counter "scavenger.unattributed"
let m_sanitizer_findings = Metrics.counter "sanitizer.findings"

let run ?pool (cfg : Config.t) (module A : Nvsc_apps.Workload.APP) =
  Span.with_ ~arg:A.name "scavenger.run" @@ fun () ->
  let { Config.scale; iterations; with_trace; sampling; batch_capacity;
        sanitize; check_init; persist } =
    cfg
  in
  let ctx, san, pchk, trace, hierarchy, stage =
    Span.with_ "scavenger.setup" @@ fun () ->
    let ctx =
      Ctx.create ?batch_capacity
        ~redzone_words:(if sanitize then sanitizer_redzone_words else 0)
        ()
    in
    let san =
      if sanitize then Some (Nvsc_sanitizer.Trace_san.attach ~check_init ctx)
      else None
    in
    let pchk =
      if persist then Some (Nvsc_sanitizer.Persist_check.attach ctx)
      else None
    in
    (match sampling with
    | Some (period, sample_length) ->
      Ctx.set_sampling ctx ~period ~sample_length
    | None -> ());
    let trace = if with_trace then Some (Trace_log.create ()) else None in
    let hierarchy =
      Option.map
        (fun log ->
          Hierarchy.create ~sink:(Trace_log.sink ~name:"trace-log" log) ())
        trace
    in
    (* on a pool of two domains the filter drains one batch while the
       application fills the next *)
    let stage =
      Option.map (fun h -> Stage.create ?pool (Hierarchy.consume h)) hierarchy
    in
    (* Filter only main-loop batches through the caches: the paper
       instruments the main computation loop.  Batches are handed over
       under their emission phase, read here on the producer, so the
       filter is exact. *)
    Option.iter
      (fun stage ->
        Ctx.hand_over ctx (fun b ~n ->
            match Ctx.phase ctx with
            | Mem_object.Main _ -> Stage.hand_over stage b ~n
            | Mem_object.Pre | Mem_object.Post -> b))
      stage;
    (ctx, san, pchk, trace, hierarchy, stage)
  in
  let app () =
    Span.with_ ~arg:A.name "scavenger.app" (fun () ->
        A.run ~scale ctx ~iterations);
    Ctx.flush_refs ctx
  in
  (match stage with Some stage -> Stage.drive stage app | None -> app ());
  Span.with_ "scavenger.analysis" @@ fun () ->
  Option.iter Hierarchy.drain hierarchy;
  let sanitizer = Option.map Nvsc_sanitizer.Trace_san.finish san in
  let metrics = Object_metrics.collect ctx ~iterations in
  let persist_report =
    Option.map
      (fun p ->
        Nvsc_sanitizer.Persist_check.check_set p ~iterations
          (List.map Object_metrics.item metrics);
        Nvsc_sanitizer.Persist_check.finish p)
      pchk
  in
  let footprint_bytes =
    List.fold_left (fun acc m -> acc + Object_metrics.size_bytes m) 0 metrics
  in
  let fast_tallies =
    Array.init (iterations + 1) (fun i -> Ctx.fast_tally ctx ~iter:i)
  in
  let miss_rate cache_of =
    match hierarchy with Some h -> Cache.miss_rate (cache_of h) | None -> 0.
  in
  let pipeline = Ctx.pipeline_stats ctx in
  Metrics.Counter.incr m_runs;
  Metrics.Counter.add m_refs pipeline.Ctx.refs;
  Metrics.Counter.add m_batches pipeline.Ctx.batches;
  Metrics.Counter.add m_capacity_flushes pipeline.Ctx.capacity_flushes;
  Metrics.Counter.add m_boundary_flushes pipeline.Ctx.boundary_flushes;
  Metrics.Counter.add m_unattributed (Ctx.unattributed ctx);
  (match sanitizer with
  | Some report ->
    Metrics.Counter.add m_sanitizer_findings (List.length report)
  | None -> ());
  (* the context never escapes [run]: pool its emission buffers for the
     next run's [Ctx.create] (everything read below is already copied) *)
  Ctx.release ctx;
  {
    app_name = A.name;
    description = A.description;
    input_description = A.input_description;
    paper_footprint_mb = A.paper_footprint_mb;
    iterations;
    scale;
    footprint_bytes;
    total_main_refs = Object_metrics.total_main_refs ctx ~iterations;
    metrics;
    fast_tallies;
    mem_trace = trace;
    l1_miss_rate = miss_rate Hierarchy.l1d;
    l2_miss_rate = miss_rate Hierarchy.l2;
    unattributed = Ctx.unattributed ctx;
    sanitizer;
    persist_report;
    persist_stats = Option.map Nvsc_sanitizer.Persist_check.stats pchk;
  }

let lint ~scale ~iterations ~check_init ~persist app =
  let r =
    run
      Config.(
        default |> with_scale scale |> with_iterations iterations
        |> with_sanitize ~check_init true
        |> with_persist persist)
      app
  in
  let module D = Nvsc_sanitizer.Diagnostic in
  let found = Option.value ~default:[] in
  ( D.merge
      (Nvsc_sanitizer.Config_lint.all ~app ())
      (D.merge (found r.sanitizer) (found r.persist_report)),
    r.persist_stats )

let kind_metrics kind result =
  List.filter
    (fun (m : Object_metrics.t) -> m.obj.Mem_object.kind = kind)
    result.metrics

let stack_metrics = kind_metrics Layout.Stack
let global_metrics = kind_metrics Layout.Global
let heap_metrics = kind_metrics Layout.Heap

let global_and_heap_metrics result =
  List.filter
    (fun (m : Object_metrics.t) -> m.obj.Mem_object.kind <> Layout.Stack)
    result.metrics
