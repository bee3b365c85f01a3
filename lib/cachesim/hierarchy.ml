module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink

type t = {
  l1d : Cache.t;
  l2 : Cache.t;
  line_bytes : int;
  line_shift : int; (* log2 line_bytes *)
  sink : Sink.t;
  mutable accesses : int;
  mutable memory_reads : int;
  mutable memory_writes : int;
}

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let create ?(l1d = Cache_params.paper_l1d) ?(l2 = Cache_params.paper_l2) ~sink
    () =
  let line_bytes = l1d.Cache_params.line_bytes in
  if l2.Cache_params.line_bytes <> line_bytes then
    invalid_arg "Hierarchy.create: levels must share a line size";
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Hierarchy.create: line size %d is not a power of two"
         line_bytes);
  {
    l1d = Cache.create l1d;
    l2 = Cache.create l2;
    line_bytes;
    line_shift = log2 line_bytes;
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

(* L2 is the last level: its fills come from memory and its dirty victims
   and forwarded writes go to memory.  A filled/forwarded line is always
   the accessed line itself (see [Cache.Effect]), so only the write-back
   victim is decoded out of the effect. *)
let l2_read t line =
  let e = Cache.read t.l2 ~line in
  if not (Cache.Effect.hit e) then begin
    if Cache.Effect.fills e then mem_read t line;
    if Cache.Effect.has_writeback e then
      mem_write t (Cache.Effect.writeback_line e)
  end

let l2_write t line =
  let e = Cache.write t.l2 ~line in
  if not (Cache.Effect.hit e) then begin
    if Cache.Effect.fills e then mem_read t line;
    if Cache.Effect.has_writeback e then
      mem_write t (Cache.Effect.writeback_line e);
    if Cache.Effect.forwards_write e then mem_write t line
  end

(* A read never forwards, a forwarded write neither fills nor evicts, so
   one decode serves both operations. *)
let[@inline] access_line t line op =
  t.accesses <- t.accesses + 1;
  let e =
    match op with
    | Access.Read -> Cache.read t.l1d ~line
    | Access.Write -> Cache.write t.l1d ~line
  in
  if not (Cache.Effect.hit e) then begin
    if Cache.Effect.fills e then l2_read t line;
    if Cache.Effect.has_writeback e then
      l2_write t (Cache.Effect.writeback_line e);
    if Cache.Effect.forwards_write e then l2_write t line
  end

(* Most references fit in one line: compute both endpoints with a shift
   and skip the loop when they coincide.  The arithmetic shift keeps a
   negative address's line negative, so [Cache] rejects it. *)
let[@inline] access_raw t ~addr ~size ~op =
  let first = addr asr t.line_shift in
  let last = (addr + size - 1) asr t.line_shift in
  if first = last then access_line t first op
  else
    for line = first to last do
      access_line t line op
    done

(* The one-probe L1 hit: a reference within one line that the L1 holds
   in the most recently used way of its set.  An arithmetic shift keeps a
   negative address's line negative, which never hits. *)
let[@inline] l1_hit t ~addr ~size ~write =
  let line = addr asr t.line_shift in
  line = (addr + size - 1) asr t.line_shift
  && Cache.mru_hit t.l1d ~line ~write
  && begin
    t.accesses <- t.accesses + 1;
    true
  end

let m_probe_hits = Nvsc_obs.Metrics.counter "cachesim.filter.probe_hits"

(* One span per delivered batch, not per access.  The slice is validated
   once on entry; the loop then reads the hoisted buffer views unchecked.
   Most references hit the L1's MRU way ([l1_hit]); only the rest take
   the access dispatch. *)
let consume t batch ~first ~n =
  Nvsc_obs.Span.with_ "cachesim.filter" @@ fun () ->
  Sink.Batch.check_slice batch ~first ~n;
  let addrs = Sink.Batch.addrs batch
  and sizes = Sink.Batch.sizes batch
  and ops = Sink.Batch.ops batch in
  let hits = ref 0 in
  for j = first to first + n - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs j
    and size = Bigarray.Array1.unsafe_get sizes j
    and write = Bigarray.Array1.unsafe_get ops j <> '\000' in
    if l1_hit t ~addr ~size ~write then incr hits
    else
      access_raw t ~addr ~size ~op:(if write then Access.Write else Access.Read)
  done;
  Nvsc_obs.Metrics.Counter.add m_probe_hits !hits

let access_classified_raw t ~addr ~size ~op =
  let l1_misses_before = Cache.misses t.l1d in
  let mem_before = t.memory_reads + t.memory_writes in
  access_raw t ~addr ~size ~op;
  if t.memory_reads + t.memory_writes > mem_before then `Mem
  else if Cache.misses t.l1d > l1_misses_before then `L2
  else `L1

let drain t =
  Nvsc_obs.Span.with_ "cachesim.drain" @@ fun () ->
  (* L1 dirty lines write into L2; then L2 dirty lines write to memory. *)
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
