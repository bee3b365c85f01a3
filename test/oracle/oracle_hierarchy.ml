(* Reference implementation: the per-line dispatch hierarchy the optimized
   [Nvsc_cachesim.Hierarchy] replaced (div-based line splitting, no
   single-line fast path, effect records at every level).  Oracle for the
   differential qcheck properties — do not optimize. *)

module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Cache_params = Nvsc_cachesim.Cache_params
module Cache = Oracle_cache

type t = {
  l1d : Cache.t;
  l2 : Cache.t;
  line_bytes : int;
  sink : Sink.t;
  mutable accesses : int;
  mutable memory_reads : int;
  mutable memory_writes : int;
}

let create ?(l1d = Cache_params.paper_l1d) ?(l2 = Cache_params.paper_l2) ~sink
    () =
  if l1d.Cache_params.line_bytes <> l2.Cache_params.line_bytes then
    invalid_arg "Oracle_hierarchy.create: levels must share a line size";
  {
    l1d = Cache.create l1d;
    l2 = Cache.create l2;
    line_bytes = l1d.Cache_params.line_bytes;
    sink;
    accesses = 0;
    memory_reads = 0;
    memory_writes = 0;
  }

let mem_read t line =
  t.memory_reads <- t.memory_reads + 1;
  Sink.push t.sink ~addr:(line * t.line_bytes) ~size:t.line_bytes
    ~op:Access.Read

let mem_write t line =
  t.memory_writes <- t.memory_writes + 1;
  Sink.push t.sink ~addr:(line * t.line_bytes) ~size:t.line_bytes
    ~op:Access.Write

let l2_read t line =
  let e = Cache.read t.l2 ~line in
  (match e.Cache.fill with Some l -> mem_read t l | None -> ());
  match e.Cache.writeback with Some l -> mem_write t l | None -> ()

let l2_write t line =
  let e = Cache.write t.l2 ~line in
  (match e.Cache.fill with Some l -> mem_read t l | None -> ());
  (match e.Cache.writeback with Some l -> mem_write t l | None -> ());
  match e.Cache.forward_write with Some l -> mem_write t l | None -> ()

let access_line t line op =
  t.accesses <- t.accesses + 1;
  match op with
  | Access.Read ->
    let e = Cache.read t.l1d ~line in
    (match e.Cache.fill with Some l -> l2_read t l | None -> ());
    (match e.Cache.writeback with Some l -> l2_write t l | None -> ())
  | Access.Write ->
    let e = Cache.write t.l1d ~line in
    (match e.Cache.fill with Some l -> l2_read t l | None -> ());
    (match e.Cache.writeback with Some l -> l2_write t l | None -> ());
    (match e.Cache.forward_write with Some l -> l2_write t l | None -> ())

let access_raw t ~addr ~size ~op =
  let first = addr / t.line_bytes in
  let last = (addr + size - 1) / t.line_bytes in
  for line = first to last do
    access_line t line op
  done


(* The pre-optimization batch consumer, verbatim (minus the tracing span):
   per-element checked accessors, no hoisting.  Kept so the kernel bench
   can price the old filter stage on identical streams. *)
let consume t batch ~first ~n =
  for i = first to first + n - 1 do
    access_raw t ~addr:(Sink.Batch.addr batch i) ~size:(Sink.Batch.size batch i)
      ~op:(Sink.Batch.op batch i)
  done

let drain t =
  Cache.flush_dirty t.l1d (fun line -> l2_write t line);
  Cache.flush_dirty t.l2 (fun line -> mem_write t line);
  Sink.flush t.sink

let reset t =
  Cache.invalidate_all t.l1d;
  Cache.invalidate_all t.l2;
  Cache.reset_stats t.l1d;
  Cache.reset_stats t.l2;
  t.accesses <- 0;
  t.memory_reads <- 0;
  t.memory_writes <- 0

let l1d t = t.l1d
let l2 t = t.l2
let accesses t = t.accesses
let memory_reads t = t.memory_reads
let memory_writes t = t.memory_writes
