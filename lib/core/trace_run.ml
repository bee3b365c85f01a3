module Ctx = Nvsc_appkit.Ctx
module Mem_object = Nvsc_memtrace.Mem_object
module Object_registry = Nvsc_memtrace.Object_registry
module Counters = Nvsc_memtrace.Counters
module Sink = Nvsc_memtrace.Sink
module Trace_codec = Nvsc_memtrace.Trace_codec
module Trace_log = Nvsc_memtrace.Trace_log
module Hierarchy = Nvsc_cachesim.Hierarchy
module Cache = Nvsc_cachesim.Cache
module Span = Nvsc_obs.Span
module Access = Nvsc_memtrace.Access

let record ?batch_capacity ?chunk_capacity ~scale ~iterations ~path
    (module A : Nvsc_apps.Workload.APP) =
  Span.with_ ~arg:A.name "trace.record" @@ fun () ->
  let ctx = Ctx.create ?batch_capacity () in
  let meta =
    {
      Trace_codec.app = A.name;
      description = A.description;
      input_description = A.input_description;
      paper_footprint_mb = A.paper_footprint_mb;
      scale;
      iterations;
      batch_capacity =
        (match batch_capacity with
        | Some c -> c
        | None -> Sink.default_capacity);
    }
  in
  (* descriptors by id, filled as objects are registered, so the writer
     can snapshot an object into the chunk that first references it *)
  let objs : (int, Mem_object.t) Hashtbl.t = Hashtbl.create 256 in
  let w =
    Trace_codec.Writer.create ?chunk_capacity
      ~resolve:(fun id -> Hashtbl.find_opt objs id)
      ~path ~meta ()
  in
  match
    Ctx.observe ctx
      ~on_objects:
        (List.iter (fun (o : Mem_object.t) -> Hashtbl.replace objs o.id o))
      ~on_phase:(Trace_codec.Writer.add_phase w)
      ~on_instr:(Trace_codec.Writer.add_instr w)
      ~on_persist:(Trace_codec.Writer.add_persist w)
      ~on_refs:(Trace_codec.Writer.add_batch w)
      ();
    A.run ~scale ctx ~iterations;
    Ctx.flush_refs ctx
  with
  | () ->
    let objects = Object_registry.objects (Ctx.registry ctx) in
    let stack_objects = Ctx.stack_objects ctx in
    Ctx.release ctx;
    Trace_codec.Writer.finish w ~objects ~stack_objects ()
  | exception e ->
    Trace_codec.Writer.abort w;
    raise e

(* --- replay ------------------------------------------------------------- *)

let iteration_of_phase = function
  | Mem_object.Pre | Mem_object.Post -> 0
  | Mem_object.Main i -> i

let replay path =
  Span.with_ ~arg:path "trace.replay" @@ fun () ->
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let meta = Trace_codec.Reader.meta r in
  let iterations = meta.Trace_codec.iterations in
  let counters = Counters.create () in
  let tally = Ctx.Tally.create () in
  let in_main = ref false in
  let batches = ref 0 in
  let trace = Trace_log.create () in
  let hierarchy =
    Hierarchy.create ~sink:(Trace_log.sink ~name:"trace-log" trace) ()
  in
  Trace_codec.stream r
    ~on_phase:(fun p ->
      let iter = iteration_of_phase p in
      Counters.set_iteration counters iter;
      in_main := match p with Mem_object.Main _ -> true | _ -> false)
    ~on_refs:(fun batch ~obj_ids ~first ~n ->
      incr batches;
      (* the live emission's accounting, on the recorded attribution, over
         the hoisted planes: [stream] hands over slices within capacity *)
      Sink.Batch.check_slice batch ~first ~n;
      let addrs = Sink.Batch.addrs batch and ops = Sink.Batch.ops batch in
      for i = first to first + n - 1 do
        Ctx.Tally.account tally counters
          ~addr:(Bigarray.Array1.unsafe_get addrs i)
          ~obj_id:(Array.unsafe_get obj_ids i)
          ~op:
            (if Bigarray.Array1.unsafe_get ops i <> '\000' then Access.Write
             else Access.Read)
      done;
      if !in_main then Hierarchy.consume hierarchy batch ~first ~n)
    ();
  Hierarchy.drain hierarchy;
  let stack_objects = Trace_codec.Reader.stack_objects r in
  let objects = Trace_codec.Reader.objects r @ stack_objects in
  let stack_ids = List.map (fun (o : Mem_object.t) -> o.id) stack_objects in
  let metrics = Object_metrics.collect_of ~counters ~objects ~iterations in
  let footprint_bytes =
    List.fold_left (fun acc m -> acc + Object_metrics.size_bytes m) 0 metrics
  in
  {
    Scavenger.app_name = meta.Trace_codec.app;
    description = meta.Trace_codec.description;
    input_description = meta.Trace_codec.input_description;
    paper_footprint_mb = meta.Trace_codec.paper_footprint_mb;
    iterations;
    scale = meta.Trace_codec.scale;
    footprint_bytes;
    total_main_refs = Object_metrics.total_main_refs_of counters ~iterations;
    metrics;
    fast_tallies =
      Array.init (iterations + 1) (fun iter ->
          Ctx.Tally.fast_tally tally counters ~stack_ids ~iter);
    mem_trace = Some trace;
    l1_miss_rate = Cache.miss_rate (Hierarchy.l1d hierarchy);
    l2_miss_rate = Cache.miss_rate (Hierarchy.l2 hierarchy);
    unattributed = Ctx.Tally.unattributed tally;
    pipeline =
      (* replay has no emission batch: one "batch" per delivered slice,
         all boundary flushes *)
      {
        Ctx.batch_capacity = meta.Trace_codec.batch_capacity;
        refs = Trace_codec.Reader.refs r;
        batches = !batches;
        capacity_flushes = 0;
        boundary_flushes = !batches;
        sinks = [];
      };
    sanitizer = None;
    persist_report = None;
    persist_stats = None;
  }

let perf_replay path model =
  Span.with_ ~arg:path "trace.perf_replay" @@ fun () ->
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  Experiment.perf_feed model (fun ~on_phase ~on_instr ~on_refs ->
      Trace_codec.stream r ~on_phase ~on_instr ~on_refs ())

let info path =
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  (Trace_codec.Reader.meta r, Trace_codec.Reader.digest r)
