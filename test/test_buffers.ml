module Sink = Nvsc_memtrace.Sink
module Trace_log = Nvsc_memtrace.Trace_log
module Access = Nvsc_memtrace.Access

let test_sink_flush_on_full () =
  let seen = ref [] in
  let s =
    Sink.create ~capacity:4 (fun b ~first ~n ->
        for i = first to first + n - 1 do
          seen := Batches.get b i :: !seen
        done)
  in
  for i = 0 to 9 do
    Sink.push s ~addr:i ~size:8 ~op:Access.Read
  done;
  (* two automatic flushes of 4; 2 still buffered *)
  Alcotest.(check int) "capacity flushes" 2 (Sink.capacity_flushes s);
  Alcotest.(check int) "seen" 8 (List.length !seen);
  Sink.flush s;
  Alcotest.(check int) "after force" 10 (List.length !seen);
  Alcotest.(check int) "boundary flushes" 1 (Sink.boundary_flushes s);
  Alcotest.(check int) "pushed" 10 (Sink.pushed s);
  Alcotest.(check int) "batches" 3 (Sink.batches s);
  (* order preserved *)
  let addrs = List.rev_map (fun (a : Access.t) -> a.addr) !seen in
  Alcotest.(check (list int)) "order" (List.init 10 Fun.id) addrs

let test_sink_empty_flush () =
  let calls = ref 0 in
  let s = Sink.create ~capacity:4 (fun _ ~first:_ ~n:_ -> incr calls) in
  Sink.flush s;
  Alcotest.(check int) "no empty flush" 0 !calls;
  Alcotest.(check int) "no batches" 0 (Sink.batches s)

let test_sink_deliver_zero_copy () =
  let batches = ref [] in
  let s =
    Sink.create ~capacity:4 (fun b ~first ~n -> batches := (b, first, n) :: !batches)
  in
  let b = Sink.Batch.create 8 in
  for i = 0 to 5 do
    Sink.Batch.set b i ~addr:(100 + i) ~size:64 ~op:Access.Write
  done;
  (* one buffered push, then a delivered batch: the push must flush first *)
  Sink.push s ~addr:7 ~size:8 ~op:Access.Read;
  Sink.deliver s b ~first:1 ~n:4;
  Alcotest.(check int) "two consumer calls" 2 (List.length !batches);
  (match !batches with
  | [ (delivered, first, n); (_, _, 1) ] ->
    Alcotest.(check bool) "same batch, not a copy" true (delivered == b);
    Alcotest.(check int) "first" 1 first;
    Alcotest.(check int) "n" 4 n
  | _ -> Alcotest.fail "unexpected delivery shape");
  Alcotest.(check int) "pushed counts delivered refs" 5 (Sink.pushed s);
  (* empty deliveries are dropped *)
  Sink.deliver s b ~first:0 ~n:0;
  Alcotest.(check int) "no empty delivery" 2 (List.length !batches)

(* A sink's push buffer is made by its first push: a sink that is only
   delivered to (a memory controller's, say) owns none, and the null
   sink never buffers. *)
let test_sink_lazy_buffer () =
  let calls = ref 0 in
  let s = Sink.create ~capacity:4 (fun _ ~first:_ ~n:_ -> incr calls) in
  let b = Sink.Batch.create 8 in
  Sink.deliver s b ~first:0 ~n:8;
  Sink.flush s;
  Alcotest.(check int) "delivered only: no push buffer" 0
    (Sink.buffer_capacity s);
  Sink.push s ~addr:0 ~size:8 ~op:Access.Read;
  Alcotest.(check int) "the first push makes it" 4 (Sink.buffer_capacity s);
  let null = Sink.null () in
  for i = 0 to 9 do
    Sink.push null ~addr:i ~size:8 ~op:Access.Write
  done;
  Sink.flush null;
  Alcotest.(check int) "null: no push buffer" 0 (Sink.buffer_capacity null);
  Alcotest.(check int) "null: still counts" 10 (Sink.pushed null);
  Alcotest.check_raises "non-positive capacity"
    (Invalid_argument "Sink.create: capacity") (fun () ->
      ignore (Sink.create ~capacity:0 (fun _ ~first:_ ~n:_ -> ())));
  let cs =
    Nvsc_dramsim.Controller.sink
      (Nvsc_dramsim.Controller.create
         ~tech:(Nvsc_nvram.Technology.get Nvsc_nvram.Technology.DDR3) ())
  in
  Sink.deliver cs b ~first:0 ~n:8;
  Alcotest.(check int) "controller sink: no push buffer" 0
    (Sink.buffer_capacity cs)

let test_batch_accessors () =
  let b = Sink.Batch.create 2 in
  Sink.Batch.set b 0 ~addr:0x40 ~size:64 ~op:Access.Read;
  Sink.Batch.set b 1 ~addr:0x80 ~size:32 ~op:Access.Write;
  Alcotest.(check int) "addr" 0x80 (Sink.Batch.addr b 1);
  Alcotest.(check int) "size" 32 (Sink.Batch.size b 1);
  Alcotest.(check bool) "write op" true (Sink.Batch.is_write b 1);
  Alcotest.(check bool) "read op" false (Sink.Batch.is_write b 0)

(* Every consumer validates the slice it is handed, in every run: a
   malformed [first]/[n] raises instead of reading past the batch. *)
let slice_consumers () =
  let tech = Nvsc_nvram.Technology.get Nvsc_nvram.Technology.PCRAM in
  [
    ("Sink.deliver", Sink.deliver (Sink.null ()));
    ( "Hierarchy.consume",
      Nvsc_cachesim.Hierarchy.consume
        (Nvsc_cachesim.Hierarchy.create ~sink:(Sink.null ()) ()) );
    ( "Controller.consume",
      Nvsc_dramsim.Controller.consume (Nvsc_dramsim.Controller.create ~tech ())
    );
    ( "Perf_model.consume",
      Nvsc_cpusim.Perf_model.consume
        (Nvsc_cpusim.Perf_model.create_ledgers
           [ { mem_latency_ns = 10.; mem_write_latency_ns = None } ]) );
    ( "Dram_cache.consume",
      Nvsc_placement.Dram_cache.consume
        (Nvsc_placement.Dram_cache.create ~tech ()) );
    ( "Hybrid_system.consume",
      Nvsc_dramsim.Hybrid_system.consume
        (Nvsc_dramsim.Hybrid_system.create ~nvram:tech
           ~placement:(fun _ -> Nvsc_dramsim.Hybrid_system.Nvram_side)
           ()) );
    ("Trace_log.record_batch", Trace_log.record_batch (Trace_log.create ()));
  ]

let test_batch_checked_slices () =
  let b = Sink.Batch.create 4 in
  Sink.Batch.set b 0 ~addr:0x40 ~size:64 ~op:Access.Read;
  List.iter
    (fun (name, consume) ->
      Alcotest.check_raises (name ^ ": slice past capacity")
        (Invalid_argument "Sink.Batch: slice first=2 n=3 outside capacity 4")
        (fun () -> consume b ~first:2 ~n:3);
      Alcotest.check_raises (name ^ ": negative first")
        (Invalid_argument "Sink.Batch: slice first=-1 n=2 outside capacity 4")
        (fun () -> consume b ~first:(-1) ~n:2);
      (* a well-formed slice still goes through *)
      consume b ~first:0 ~n:1)
    (slice_consumers ());
  Alcotest.check_raises "checked accessor"
    (Invalid_argument "index out of bounds")
    (fun () -> ignore (Sink.Batch.addr b 7))

let test_log_roundtrip () =
  let log = Trace_log.create ~chunk_capacity:2 () in
  let accesses =
    [
      Access.read ~addr:0x100 ~size:64;
      Access.write ~addr:0x200 ~size:64;
      Access.read ~addr:0x300 ~size:8;
    ]
  in
  List.iter
    (fun (a : Access.t) ->
      Trace_log.record_raw log ~addr:a.addr ~size:a.size ~op:a.op)
    accesses;
  Alcotest.(check int) "length" 3 (Trace_log.length log);
  Alcotest.(check int) "reads" 2 (Trace_log.reads log);
  Alcotest.(check int) "writes" 1 (Trace_log.writes log);
  Alcotest.(check bool) "records" true (Batches.to_list log = accesses)

let test_log_replay_order () =
  let log = Trace_log.create () in
  for i = 0 to 99 do
    Trace_log.record_raw log ~addr:i ~size:8 ~op:Access.Read
  done;
  let replayed = ref [] in
  Trace_log.replay_batch log (Batches.collect replayed);
  Alcotest.(check (list int)) "order" (List.init 100 Fun.id)
    (List.rev_map (fun (a : Access.t) -> a.addr) !replayed)

let test_log_replay_batch () =
  let log = Trace_log.create ~chunk_capacity:8 () in
  for i = 0 to 99 do
    Trace_log.record_raw log ~addr:i ~size:64
      ~op:(if i mod 3 = 0 then Access.Write else Access.Read)
  done;
  (* the log arrives as one delivery per chunk: 12 full chunks of 8 and a
     last one of 4 *)
  let replayed = ref [] in
  let s = Batches.collect replayed in
  Trace_log.replay_batch log s;
  Alcotest.(check int) "one batch per chunk" 13 (Sink.batches s);
  Alcotest.(check int) "all delivered" 100 (Sink.pushed s);
  let sizes = ref [] in
  Trace_log.iter_slices log (fun _ ~first ~n ->
      sizes := (first, n) :: !sizes);
  Alcotest.(check (list (pair int int)))
    "per-chunk slices"
    (List.init 12 (fun _ -> (0, 8)) @ [ (0, 4) ])
    (List.rev !sizes);
  let got = List.rev !replayed in
  Alcotest.(check (list int)) "addresses" (List.init 100 Fun.id)
    (List.map (fun (a : Access.t) -> a.addr) got);
  Alcotest.(check bool) "ops" true
    (List.for_all2
       (fun (a : Access.t) i -> Access.is_write a = (i mod 3 = 0))
       got
       (List.init 100 Fun.id))

let test_log_record_batch () =
  let log = Trace_log.create () in
  let b = Sink.Batch.create 8 in
  for i = 0 to 7 do
    Sink.Batch.set b i ~addr:(i * 64) ~size:64
      ~op:(if i < 3 then Access.Write else Access.Read)
  done;
  Trace_log.record_batch log b ~first:2 ~n:5;
  Alcotest.(check int) "length" 5 (Trace_log.length log);
  Alcotest.(check int) "writes" 1 (Trace_log.writes log);
  Alcotest.(check int) "reads" 4 (Trace_log.reads log);
  Alcotest.(check int) "first record" 128
    (List.hd (Batches.to_list log)).Access.addr;
  (* the log's own sink records through record_batch *)
  let log2 = Trace_log.create () in
  let s = Trace_log.sink log2 in
  Sink.deliver s b ~first:0 ~n:8;
  Sink.push s ~addr:999 ~size:8 ~op:Access.Write;
  Sink.flush s;
  Alcotest.(check int) "sink records all" 9 (Trace_log.length log2);
  Alcotest.(check int) "sink writes" 4 (Trace_log.writes log2)

let test_log_clear () =
  let log = Trace_log.create () in
  Trace_log.record_raw log ~addr:1 ~size:8 ~op:Access.Write;
  Trace_log.clear log;
  Alcotest.(check int) "length" 0 (Trace_log.length log);
  Alcotest.(check int) "writes" 0 (Trace_log.writes log)

let test_log_bounds () =
  Alcotest.check_raises "non-positive capacity"
    (Invalid_argument "Trace_log.create") (fun () ->
      ignore (Trace_log.create ~chunk_capacity:0 ()));
  let log = Trace_log.create () in
  let b = Sink.Batch.create 4 in
  Alcotest.check_raises "slice outside the batch"
    (Invalid_argument "Sink.Batch: slice first=3 n=2 outside capacity 4")
    (fun () -> Trace_log.record_batch log b ~first:3 ~n:2);
  (* a refused slice records nothing *)
  Alcotest.(check int) "length" 0 (Trace_log.length log);
  Alcotest.(check int) "reads" 0 (Trace_log.reads log);
  (* an empty log replays an empty slice, nothing past its length *)
  let s = Batches.collect (ref []) in
  Trace_log.replay_batch log s;
  Alcotest.(check int) "nothing delivered" 0 (Sink.pushed s)

let log_growth_prop =
  QCheck.Test.make ~name:"log preserves arbitrary streams" ~count:50
    QCheck.(
      list_of_size
        Gen.(int_range 0 500)
        (pair (int_range 0 (1 lsl 30)) bool))
    (fun events ->
      let log = Trace_log.create ~chunk_capacity:1 () in
      List.iter
        (fun (addr, is_read) ->
          Trace_log.record_raw log ~addr ~size:64
            ~op:(if is_read then Access.Read else Access.Write))
        events;
      List.map
        (fun (a : Access.t) -> (a.addr, Access.is_read a))
        (Batches.to_list log)
      = events)

let suite =
  [
    Alcotest.test_case "sink flush on full" `Quick test_sink_flush_on_full;
    Alcotest.test_case "sink empty flush" `Quick test_sink_empty_flush;
    Alcotest.test_case "sink deliver zero-copy" `Quick
      test_sink_deliver_zero_copy;
    Alcotest.test_case "sink push buffer made by the first push" `Quick
      test_sink_lazy_buffer;
    Alcotest.test_case "batch accessors" `Quick test_batch_accessors;
    Alcotest.test_case "batch checked slices" `Quick
      test_batch_checked_slices;
    Alcotest.test_case "log roundtrip" `Quick test_log_roundtrip;
    Alcotest.test_case "log replay order" `Quick test_log_replay_order;
    Alcotest.test_case "log replay batch" `Quick test_log_replay_batch;
    Alcotest.test_case "log record batch" `Quick test_log_record_batch;
    Alcotest.test_case "log clear" `Quick test_log_clear;
    Alcotest.test_case "log bounds" `Quick test_log_bounds;
    QCheck_alcotest.to_alcotest log_growth_prop;
  ]
