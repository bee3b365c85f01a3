(* The log is a sequence of fixed-capacity batches ("chunks").  It grows
   by appending a chunk, never by copying what it holds: a doubling
   buffer leaves each outgrown copy to the GC, and a long trace's
   outgrown copies are megabytes of off-heap memory waiting to be
   finalised. *)
type t = {
  chunk_capacity : int;
  mutable chunks : Sink.Batch.t array;
  mutable len : int;
  mutable reads : int;
  mutable writes : int;
}

(* 16384 records (272 KiB) per chunk: a short trace (the quick
   experiments' are about 10K records) fits one chunk no larger than
   the doubling buffer it replaces would have grown to, and a long one
   wastes at most the unfilled tail of its last chunk *)
let default_chunk_capacity = 16384

let create ?(chunk_capacity = default_chunk_capacity) () =
  if chunk_capacity <= 0 then invalid_arg "Trace_log.create";
  { chunk_capacity; chunks = [||]; len = 0; reads = 0; writes = 0 }

(* The chunk that receives record [t.len], appended when the last one is
   full (a cleared log reuses the chunks it already has). *)
let tail t =
  let k = t.len / t.chunk_capacity in
  if k = Array.length t.chunks then
    t.chunks <- Array.append t.chunks [| Sink.Batch.create t.chunk_capacity |];
  t.chunks.(k)

let record_raw t ~addr ~size ~op =
  Sink.Batch.set (tail t) (t.len mod t.chunk_capacity) ~addr ~size ~op;
  t.len <- t.len + 1;
  match op with
  | Access.Read -> t.reads <- t.reads + 1
  | Access.Write -> t.writes <- t.writes + 1

let record_batch t batch ~first ~n =
  Sink.Batch.check_slice batch ~first ~n;
  let writes = ref 0 in
  for i = first to first + n - 1 do
    if Sink.Batch.is_write batch i then incr writes
  done;
  let pos = ref first and left = ref n in
  while !left > 0 do
    let chunk = tail t in
    let at = t.len mod t.chunk_capacity in
    let k = min !left (t.chunk_capacity - at) in
    Sink.Batch.blit batch ~src_pos:!pos chunk ~dst_pos:at ~n:k;
    t.len <- t.len + k;
    pos := !pos + k;
    left := !left - k
  done;
  t.writes <- t.writes + !writes;
  t.reads <- t.reads + n - !writes

let sink ?(name = "trace-log") t =
  Sink.create ~name (fun batch ~first ~n -> record_batch t batch ~first ~n)

let length t = t.len

let iter_slices t f =
  let i = ref 0 in
  while !i * t.chunk_capacity < t.len do
    let first = !i * t.chunk_capacity in
    f t.chunks.(!i) ~first:0 ~n:(min t.chunk_capacity (t.len - first));
    incr i
  done

let replay_batch t sink =
  iter_slices t (fun chunk ~first ~n -> Sink.deliver sink chunk ~first ~n)

let reads t = t.reads
let writes t = t.writes

let clear t =
  t.len <- 0;
  t.reads <- 0;
  t.writes <- 0
