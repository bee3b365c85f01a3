module Ctx = Nvsc_appkit.Ctx
module Mem_object = Nvsc_memtrace.Mem_object
module Object_registry = Nvsc_memtrace.Object_registry
module Counters = Nvsc_memtrace.Counters
module Sink = Nvsc_memtrace.Sink
module Trace_codec = Nvsc_memtrace.Trace_codec
module Trace_log = Nvsc_memtrace.Trace_log
module Stage = Nvsc_memtrace.Stage
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

let replay ?pool path =
  Span.with_ ~arg:path "trace.replay" @@ fun () ->
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let meta = Trace_codec.Reader.meta r in
  let iterations = meta.Trace_codec.iterations in
  let stack_objects = Trace_codec.Reader.stack_objects r in
  let objects = Trace_codec.Reader.objects r @ stack_objects in
  (* A recording's ids never exceed the largest of its trailer's tables,
     so the counters refuse a larger one as damage: a forged id must not
     size an allocation. *)
  let max_id =
    List.fold_left (fun m (o : Mem_object.t) -> max m o.id) (-1) objects
  in
  let counters = Counters.create ~max_id () in
  let tally = Ctx.Tally.create () in
  let in_main = ref false in
  let trace = Trace_log.create () in
  let hierarchy =
    Hierarchy.create ~sink:(Trace_log.sink ~name:"trace-log" trace) ()
  in
  let stage = Stage.create ?pool (Hierarchy.consume hierarchy) in
  Stage.drive stage (fun () ->
      Trace_codec.stream r
        ~on_phase:(fun p ->
          let iter = iteration_of_phase p in
          Counters.set_iteration counters iter;
          in_main := match p with Mem_object.Main _ -> true | _ -> false)
        ~on_refs:(fun batch ~obj_ids ~first ~n ->
          (* the live emission's accounting, on the recorded attribution,
             over the hoisted planes: [stream] hands over slices within
             capacity *)
          Sink.Batch.check_slice batch ~first ~n;
          let addrs = Sink.Batch.addrs batch and ops = Sink.Batch.ops batch in
          for i = first to first + n - 1 do
            Ctx.Tally.account tally counters
              ~addr:(Bigarray.Array1.unsafe_get addrs i)
              ~obj_id:(Array.unsafe_get obj_ids i)
              ~op:
                (if Bigarray.Array1.unsafe_get ops i <> '\000' then
                   Access.Write
                 else Access.Read)
          done)
        ~hand_over:(fun batch ~n ->
          (* main-loop slices, chosen by the decoder's last phase token,
             go to the filter once the tally above has read them *)
          if !in_main then Stage.hand_over stage batch ~n else batch)
        ());
  Hierarchy.drain hierarchy;
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
  ( Trace_codec.Reader.meta r,
    Trace_codec.Reader.digest r,
    List.length (Trace_codec.Reader.objects r)
    + List.length (Trace_codec.Reader.stack_objects r) )
