(* The filter stage (Nvsc_memtrace.Stage) and what it rests on: the
   pool's busy/blocked accounting, the chunked trace log, and the
   differential contract that the cache filter gives the same answer
   whether it runs on the producer's domain or on a second one. *)

module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Stage = Nvsc_memtrace.Stage
module Trace_log = Nvsc_memtrace.Trace_log
module Trace_file = Nvsc_memtrace.Trace_file
module Pool = Nvsc_team.Pool
module Metrics = Nvsc_obs.Metrics
module Scavenger = Nvsc_core.Scavenger
module Trace_run = Nvsc_core.Trace_run
module Cell = Nvsc_sweep.Cell

(* A batch of [n] records whose addresses count up from [base]. *)
let batch_of ~base n =
  let b = Sink.Batch.create (max 1 n) in
  for i = 0 to n - 1 do
    Sink.Batch.set b i ~addr:(base + i) ~size:8
      ~op:(if (base + i) mod 3 = 0 then Access.Write else Access.Read)
  done;
  b

let cap = Sink.default_capacity

(* A consumer that checks it sees the addresses 0, 1, 2, ... in order,
   and fails the test if two of its calls ever overlap or its slice
   changes while it reads it: it checksums the slice on entry and again
   after a pause, so a producer writing a batch still in flight shows.
   Returns the count seen so far. *)
let counting_consumer () =
  let seen = ref 0 in
  let active = Atomic.make false in
  let checksum b ~first ~n =
    let h = ref 0 in
    for i = first to first + n - 1 do
      h := (!h * 31) + Sink.Batch.addr b i + Sink.Batch.size b i
           + Bool.to_int (Sink.Batch.is_write b i)
    done;
    !h
  in
  let consume b ~first ~n =
    if not (Atomic.compare_and_set active false true) then
      Alcotest.fail "two consumer calls overlap";
    let before = checksum b ~first ~n in
    for i = first to first + n - 1 do
      if Sink.Batch.addr b i <> !seen then
        Alcotest.failf "address %d delivered where %d was due"
          (Sink.Batch.addr b i) !seen;
      incr seen
    done;
    Unix.sleepf 0.0005;
    if checksum b ~first ~n <> before then
      Alcotest.fail "a handed-over batch was written while in flight";
    Atomic.set active false
  in
  (consume, seen)

(* --- the stage --------------------------------------------------------- *)

let test_direct_at_width_1 () =
  let b = batch_of ~base:0 10 in
  let got = ref [] in
  let consume b' ~first ~n = got := (b' == b, first, n) :: !got in
  let check label stage =
    got := [];
    Alcotest.(check bool) (label ^ ": the same batch comes back") true
      (Stage.hand_over stage b ~n:4 == b);
    Alcotest.(check bool) (label ^ ": an empty hand-over") true
      (Stage.hand_over stage b ~n:0 == b);
    Stage.finish stage;
    Alcotest.(check (list (triple bool int int)))
      (label ^ ": the handed batch itself, no copy")
      [ (true, 0, 4) ] !got
  in
  check "no pool" (Stage.create consume);
  Pool.with_pool ~jobs:1 @@ fun pool ->
  check "one-domain pool" (Stage.create ~pool consume)

(* A producer of a random capacity hands over slices of random sizes,
   and at once overwrites every record of the batch it gets back.  The
   stream arrives whole and in order, one consumer call at a time, no
   handed batch changes while the consumer reads it, and the producer
   gets back a batch of its capacity that is never the one it just
   handed over. *)
let stage_order_prop =
  QCheck.Test.make ~name:"stage delivers the stream in order at width 2"
    ~count:20
    QCheck.(
      pair (int_range 1 40)
        (list_of_size Gen.(int_range 0 30) (int_range 0 40)))
    (fun (capacity, sizes) ->
      Pool.with_pool ~jobs:2 @@ fun pool ->
      let consume, seen = counting_consumer () in
      let stage = Stage.create ~pool consume in
      let batch = ref (Sink.Batch.create capacity) in
      let next = ref 0 in
      List.iter
        (fun n ->
          let n = min n capacity in
          for i = 0 to n - 1 do
            Sink.Batch.set !batch i ~addr:(!next + i) ~size:8 ~op:Access.Read
          done;
          let handed = !batch in
          batch := Stage.hand_over stage handed ~n;
          if n > 0 && !batch == handed then
            Alcotest.fail "the producer kept the batch it handed over";
          if Sink.Batch.capacity !batch <> capacity then
            Alcotest.fail "the producer got a batch of another capacity";
          (* scribble over the whole batch the producer got back *)
          for i = 0 to capacity - 1 do
            Sink.Batch.set !batch i ~addr:(-1) ~size:(-1) ~op:Access.Write
          done;
          next := !next + n)
        sizes;
      Stage.finish stage;
      !seen = !next)

(* The spare starts with the first handed batch's sizes, so a producer
   that fills them once (the emission context) finds them filled. *)
let test_spare_keeps_sizes () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let stage = Stage.create ~pool (fun _ ~first:_ ~n:_ -> ()) in
  let b = Sink.Batch.create 5 in
  Sink.Batch.fill_sizes b 8;
  let spare = Stage.hand_over stage b ~n:5 in
  Stage.finish stage;
  Alcotest.(check (list int)) "sizes" [ 8; 8; 8; 8; 8 ]
    (List.init 5 (Sink.Batch.size spare))

exception Consumer_failed of int

(* The consumer raises on its k-th batch: the same exception reaches the
   producer from a later hand-over or from [finish], no later batch is
   consumed, and [with_pool] returns (its worker joined). *)
let test_failing_consumer () =
  List.iter
    (fun k ->
      let calls = ref 0 in
      let consume _ ~first:_ ~n:_ =
        incr calls;
        if !calls = k then raise (Consumer_failed k)
      in
      let outcome =
        match
          Pool.with_pool ~jobs:2 @@ fun pool ->
          let stage = Stage.create ~pool consume in
          let b = ref (batch_of ~base:0 cap) in
          (try
             for _ = 1 to 10 do
               b := Stage.hand_over stage !b ~n:cap
             done;
             Stage.finish stage
           with Consumer_failed j ->
             (* every later use of the failed stage re-raises *)
             (match Stage.hand_over stage !b ~n:cap with
             | _ -> Alcotest.fail "a hand-over after a failure succeeded"
             | exception Consumer_failed j' -> assert (j = j'));
             (match Stage.finish stage with
             | () -> Alcotest.fail "finish after a failure succeeded"
             | exception Consumer_failed j' -> assert (j = j'));
             raise (Consumer_failed j))
        with
        | () -> None
        | exception Consumer_failed j -> Some j
      in
      Alcotest.(check (option int))
        (Printf.sprintf "batch %d's exception reaches the producer" k)
        (Some k) outcome;
      Alcotest.(check int)
        (Printf.sprintf "no batch after batch %d is consumed" k)
        k !calls)
    [ 1; 2; 5; 10 ]

(* A producer that fails under [drive]: the in-flight batch finishes
   before the producer's exception leaves, and the batch the producer
   was filling is never consumed. *)
let test_failing_producer () =
  let consumed = ref [] in
  let consume _ ~first:_ ~n =
    Unix.sleepf 0.05;
    consumed := n :: !consumed
  in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let stage = Stage.create ~pool consume in
  (match
     Stage.drive stage (fun () ->
         let b = Stage.hand_over stage (batch_of ~base:0 cap) ~n:cap in
         Sink.Batch.set b 0 ~addr:0 ~size:8 ~op:Access.Read;
         raise Exit)
   with
  | () -> Alcotest.fail "the producer's exception was lost"
  | exception Exit -> ());
  Alcotest.(check (list int)) "in-flight batch done, partial one dropped"
    [ cap ] !consumed

(* --- pool accounting --------------------------------------------------- *)

let dist name =
  match Metrics.get name with
  | Some (Metrics.Dist d) -> d
  | _ -> Alcotest.fail (name ^ " is not a registered distribution")

let armed f =
  Nvsc_obs.reset ();
  Nvsc_obs.Span.enable ();
  Fun.protect ~finally:Nvsc_obs.Span.disable f

(* Tasks the awaiting caller runs itself are its busy time, not queue
   wait: on a one-domain pool nothing ever waits for a free domain. *)
let test_caller_runs_as_busy () =
  armed @@ fun () ->
  ignore (Pool.map ~jobs:1 (fun () -> Unix.sleepf 0.02) [| (); (); () |]);
  let wait = dist "sweep.pool.queue_wait_ns" in
  let busy = dist "sweep.pool.busy_ns" in
  let blocked = dist "sweep.pool.blocked_ns" in
  Alcotest.(check int) "no queue wait sampled" 0 wait.count;
  Alcotest.(check int) "one domain" 1 busy.count;
  Alcotest.(check bool) "the three tasks are busy time" true
    (busy.sum >= 60_000_000);
  Alcotest.(check int) "never blocked" 0 blocked.sum

(* A producer that outruns its stage waits for the previous batch: that
   wait is the caller's blocked time; the worker's consumer is busy.  The
   producer hands off the next batch only once the worker has started
   the previous one, so the caller never runs a batch itself. *)
let test_stage_wait_is_blocked () =
  armed @@ fun () ->
  (Pool.with_pool ~jobs:2 @@ fun pool ->
   let started = Atomic.make 0 in
   let stage =
     Stage.create ~pool (fun _ ~first:_ ~n:_ ->
         Atomic.incr started;
         Unix.sleepf 0.03)
   in
   let b = ref (batch_of ~base:0 cap) in
   for k = 1 to 4 do
     b := Stage.hand_over stage !b ~n:cap;
     while Atomic.get started < k do
       Unix.sleepf 0.0005
     done
   done;
   Stage.finish stage);
  let busy = dist "sweep.pool.busy_ns" in
  let blocked = dist "sweep.pool.blocked_ns" in
  Alcotest.(check int) "two domains" 2 busy.count;
  Alcotest.(check bool) "the consumer's batches are busy time" true
    (busy.max >= 120_000_000);
  Alcotest.(check bool) "the producer's waits are blocked time" true
    (blocked.max >= 60_000_000);
  Alcotest.(check int) "hand-offs are not counted as submitted tasks" 0
    (match Metrics.get "sweep.pool.submitted" with
    | Some (Metrics.Counter n) -> n
    | _ -> -1)

let test_map_in_shared_pool () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  Alcotest.(check (array int)) "input order" [| 0; 1; 4; 9; 16 |]
    (Pool.map_in pool (fun i -> i * i) (Array.init 5 Fun.id));
  let ran = Atomic.make 0 in
  (match
     Pool.map_in pool
       (fun i ->
         Atomic.incr ran;
         if i >= 1 then failwith (string_of_int i))
       (Array.init 4 Fun.id)
   with
  | _ -> Alcotest.fail "a failing item must raise"
  | exception Failure msg ->
    Alcotest.(check string) "first failing index wins" "1" msg);
  (* the pool stays usable after a failed map *)
  Alcotest.(check (array int)) "pool still serves" [| 7 |]
    (Pool.map_in pool (fun i -> i) [| 7 |])

(* --- metrics ----------------------------------------------------------- *)

let test_touched_metrics () =
  let snap =
    [
      ("a.zero", Metrics.Counter 0);
      ("b.one", Metrics.Counter 1);
      ("c.gauge", Metrics.Gauge 0.);
      ("d.gauge", Metrics.Gauge 2.);
      ("e.empty_ns", Metrics.Dist { count = 0; sum = 0; min = 0; max = 0 });
      ("f.seen_ns", Metrics.Dist { count = 1; sum = 0; min = 0; max = 0 });
    ]
  in
  Alcotest.(check (list string)) "only touched entries"
    [ "b.one"; "d.gauge"; "f.seen_ns" ]
    (List.map fst (Metrics.touched snap))

(* --- the chunked trace log --------------------------------------------- *)

let addrs log = List.map (fun (a : Access.t) -> a.addr) (Batches.to_list log)

let test_log_straddles_chunks () =
  let log = Trace_log.create ~chunk_capacity:4 () in
  Trace_log.record_raw log ~addr:100 ~size:8 ~op:Access.Write;
  (* 9 records from offset 2 of a 12-record batch: they fill the first
     chunk's 3 free slots, a whole chunk, and 2 slots of a third *)
  Trace_log.record_batch log (batch_of ~base:0 12) ~first:2 ~n:9;
  Alcotest.(check int) "length" 10 (Trace_log.length log);
  Alcotest.(check int) "writes" 4 (Trace_log.writes log);
  Alcotest.(check int) "reads" 6 (Trace_log.reads log);
  Alcotest.(check (list int)) "records in order"
    (100 :: List.init 9 (fun i -> i + 2))
    (addrs log);
  let slices = ref [] in
  Trace_log.iter_slices log (fun _ ~first ~n -> slices := (first, n) :: !slices);
  Alcotest.(check (list (pair int int))) "per-chunk slices"
    [ (0, 4); (0, 4); (0, 2) ] (List.rev !slices);
  (* a cleared log reuses its chunks *)
  Trace_log.clear log;
  Trace_log.record_raw log ~addr:7 ~size:8 ~op:Access.Read;
  Alcotest.(check (list int)) "after clear" [ 7 ] (addrs log)

let test_log_file_roundtrip () =
  let path = Filename.temp_file "nvsc-log" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let log = Trace_log.create ~chunk_capacity:3 () in
  for i = 0 to 10 do
    Trace_log.record_raw log ~addr:(i * 64) ~size:64
      ~op:(if i mod 4 = 0 then Access.Write else Access.Read)
  done;
  Trace_file.save log path;
  let back = Trace_file.load path in
  Alcotest.(check bool) "records survive save/load" true
    (Batches.to_list log = Batches.to_list back);
  (* the cycle column counts records across chunks *)
  let ic = open_in path in
  let lines = List.init 11 (fun _ -> input_line ic) in
  close_in ic;
  Alcotest.(check string) "last line" "0x280 P_MEM_RD 10" (List.nth lines 10)

(* Chunks share one size plane while every record has the first one's
   size; a record of another size, pushed one at a time or inside a
   batch slice, gives only the chunk it lands in a plane of its own.
   Every record keeps its size through [replay_batch], and its address
   and op through [Trace_file] (whose format has no size column). *)
let test_log_mixed_sizes () =
  let log = Trace_log.create ~chunk_capacity:4 () in
  let expected = ref [] in
  let raw addr size =
    let op = if addr mod 3 = 0 then Access.Write else Access.Read in
    Trace_log.record_raw log ~addr ~size ~op;
    expected := { Access.addr; size; op } :: !expected
  in
  for i = 0 to 5 do
    raw (i * 64) 64
  done;
  (* chunk 1 gets an 8-byte record among 64-byte ones *)
  raw 400 8;
  raw 448 64;
  (* a slice straddling chunks 2 and 3, with one 16-byte record in
     chunk 3 *)
  let b = Sink.Batch.create 6 in
  List.iteri
    (fun i size ->
      let addr = 1000 + (i * 64) in
      let op = if i = 2 then Access.Write else Access.Read in
      Sink.Batch.set b i ~addr ~size ~op;
      expected := { Access.addr; size; op } :: !expected)
    [ 64; 64; 64; 64; 16; 64 ];
  Trace_log.record_batch log b ~first:0 ~n:6;
  raw 5000 64;
  let expected = List.rev !expected in
  let replayed = ref [] in
  Trace_log.replay_batch log
    (Sink.create (fun b ~first ~n ->
         replayed := List.rev_append (Batches.slice b ~first ~n) !replayed));
  Alcotest.(check bool) "replay_batch keeps every size" true
    (List.rev !replayed = expected);
  Alcotest.(check bool) "iter_slices too" true (Batches.to_list log = expected);
  let path = Filename.temp_file "nvsc-mixed" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace_file.save log path;
  let back = Batches.to_list (Trace_file.load ~size:64 path) in
  Alcotest.(check bool) "addresses and ops survive save/load" true
    (List.map (fun (a : Access.t) -> (a.addr, a.op)) back
    = List.map (fun (a : Access.t) -> (a.addr, a.op)) expected);
  Alcotest.(check bool) "loaded records take the given size" true
    (List.for_all (fun (a : Access.t) -> a.size = 64) back)

(* --- differential: widths and capacities -------------------------------- *)

let with_tmp f =
  let path = Filename.temp_file "nvsc-stage" ".nvt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let scale = 0.1
let iterations = 2

let config ~capacity =
  Scavenger.Config.(
    default |> with_scale scale |> with_iterations iterations
    |> with_trace true
    |> with_batch_capacity capacity)

(* The filter's output: the main-memory trace carries the L2's fills and
   write-backs, and the exact miss rates pin the L1 and L2 counts over the
   same reference stream. *)
let filtered (r : Scavenger.result) =
  (Batches.to_list (Option.get r.mem_trace), r.l1_miss_rate, r.l2_miss_rate)

let render_cells ?trace ~jobs specs =
  List.map2
    (fun spec payload ->
      Format.asprintf "%a" (fun fmt () -> Cell.render fmt spec payload) ())
    specs
    (Cell.execute_group ~jobs ?trace specs)

(* For every application: [Scavenger.run] and [Trace_run.replay] at
   widths 1 and 2, at emission capacities 1, 7 and 65536, give the same
   main-memory trace and the same L1/L2 miss rates as the width-1 live run,
   and a run group's cells render the same at both widths, live and
   from the trace. *)
let test_widths_agree () =
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      let app = (module A : Nvsc_apps.Workload.APP) in
      let name = A.name in
      let reference = filtered (Scavenger.run (config ~capacity:65536) app) in
      let check label r =
        let trace, l1, l2 = filtered r in
        let ref_trace, ref_l1, ref_l2 = reference in
        Alcotest.(check int)
          (Printf.sprintf "%s %s: trace length" name label)
          (List.length ref_trace) (List.length trace);
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: main-memory trace" name label)
          true (trace = ref_trace);
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: L1/L2 miss rates" name label)
          true (l1 = ref_l1 && l2 = ref_l2)
      in
      List.iter
        (fun capacity ->
          with_tmp @@ fun path ->
          ignore
            (Trace_run.record ~batch_capacity:capacity
               ~chunk_capacity:(max 7 capacity) ~scale ~iterations ~path app);
          List.iter
            (fun jobs ->
              Pool.with_pool ~jobs @@ fun pool ->
              check
                (Printf.sprintf "live width %d capacity %d" jobs capacity)
                (Scavenger.run ~pool (config ~capacity) app);
              check
                (Printf.sprintf "replay width %d capacity %d" jobs capacity)
                (Trace_run.replay ~pool path))
            [ 1; 2 ])
        [ 1; 7; 65536 ];
      with_tmp @@ fun path ->
      ignore (Trace_run.record ~scale ~iterations ~path app);
      let _, digest, _ = Trace_run.info path in
      let specs =
        List.map
          (fun kind ->
            {
              Cell.app = name;
              kind;
              scale;
              iterations;
              tech = (if kind = Cell.Place then Some Nvsc_nvram.Technology.STTRAM
                      else None);
              trace_digest = None;
            })
          [ Cell.Objects; Cell.Power; Cell.Place ]
      in
      let pinned = List.map (Cell.pin_trace ~digest ~iterations) specs in
      let serial = render_cells ~jobs:1 specs in
      Alcotest.(check (list string)) (name ^ ": live cells at width 2") serial
        (render_cells ~jobs:2 specs);
      List.iter
        (fun jobs ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: trace-fed cells at width %d" name jobs)
            serial
            (render_cells ~trace:path ~jobs pinned))
        [ 1; 2 ])
    Nvsc_apps.Apps.extended

let suite =
  [
    Alcotest.test_case "stage: width 1 calls the consumer directly" `Quick
      test_direct_at_width_1;
    QCheck_alcotest.to_alcotest stage_order_prop;
    Alcotest.test_case "stage: the spare starts with the sizes" `Quick
      test_spare_keeps_sizes;
    Alcotest.test_case "stage: a failing consumer stops the stream" `Quick
      test_failing_consumer;
    Alcotest.test_case "stage: a failing producer leaves the filter idle"
      `Quick test_failing_producer;
    Alcotest.test_case "pool: caller-run tasks are busy, not queue wait"
      `Quick test_caller_runs_as_busy;
    Alcotest.test_case "pool: stage waits are blocked time" `Quick
      test_stage_wait_is_blocked;
    Alcotest.test_case "pool: map_in on a shared pool" `Quick
      test_map_in_shared_pool;
    Alcotest.test_case "metrics: touched entries only" `Quick
      test_touched_metrics;
    Alcotest.test_case "log: record_batch straddles chunks" `Quick
      test_log_straddles_chunks;
    Alcotest.test_case "log: Trace_file save/load round trip" `Quick
      test_log_file_roundtrip;
    Alcotest.test_case "log: mixed sizes share a plane only where uniform"
      `Quick test_log_mixed_sizes;
    Alcotest.test_case "filter: widths 1/2 x capacities 1/7/65536 agree"
      `Slow test_widths_agree;
  ]
