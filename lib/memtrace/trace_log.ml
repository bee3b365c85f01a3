(* The log is a sequence of fixed-capacity batches ("chunks").  It grows
   by appending a chunk, never by copying what it holds: a doubling
   buffer leaves each outgrown copy to the GC, and a long trace's
   outgrown copies are megabytes of off-heap memory waiting to be
   finalised.  While every record has one size (a cache filter's trace
   is all one line size), the chunks share one read-only size plane
   instead of storing that size per record; a record of another size
   gives the chunk it lands in a plane of its own. *)
type t = {
  chunk_capacity : int;
  mutable chunks : Sink.Batch.t array;
  mutable len : int;
  mutable reads : int;
  mutable writes : int;
  (* the shared plane, made with the first chunk and filled with the
     first record's size, [uniform] *)
  mutable shared : Sink.Batch.int_buf option;
  mutable uniform : int;
}

(* 16384 records (272 KiB) per chunk: a short trace (the quick
   experiments' are about 10K records) fits one chunk no larger than
   the doubling buffer it replaces would have grown to, and a long one
   wastes at most the unfilled tail of its last chunk *)
let default_chunk_capacity = 16384

let create ?(chunk_capacity = default_chunk_capacity) () =
  if chunk_capacity <= 0 then invalid_arg "Trace_log.create";
  {
    chunk_capacity;
    chunks = [||];
    len = 0;
    reads = 0;
    writes = 0;
    shared = None;
    uniform = 0;
  }

let shared_plane t ~size =
  match t.shared with
  | Some p -> p
  | None ->
    let p =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout t.chunk_capacity
    in
    Bigarray.Array1.fill p size;
    t.shared <- Some p;
    t.uniform <- size;
    p

let shares t chunk =
  match t.shared with
  | Some p -> Sink.Batch.sizes chunk == p
  | None -> false

(* The chunk that receives record [t.len], of [size], appended when the
   last one is full (a cleared log reuses the chunks it already has). *)
let tail t ~size =
  let k = t.len / t.chunk_capacity in
  if k = Array.length t.chunks then
    t.chunks <-
      Array.append t.chunks
        [| Sink.Batch.with_shared_sizes (shared_plane t ~size) |];
  t.chunks.(k)

(* Give the tail chunk a size plane of its own, holding the shared
   plane's size for the records it already has. *)
let own_sizes t =
  let k = t.len / t.chunk_capacity in
  let chunk = t.chunks.(k) in
  let own = Sink.Batch.create t.chunk_capacity in
  Sink.Batch.blit chunk ~src_pos:0 own ~dst_pos:0
    ~n:(t.len mod t.chunk_capacity);
  t.chunks.(k) <- own;
  own

let record_raw t ~addr ~size ~op =
  let chunk = tail t ~size in
  let i = t.len mod t.chunk_capacity in
  (if not (shares t chunk) then Sink.Batch.set chunk i ~addr ~size ~op
   else if size = t.uniform then Sink.Batch.set_addr_op chunk i ~addr ~op
   else Sink.Batch.set (own_sizes t) i ~addr ~size ~op);
  t.len <- t.len + 1;
  match op with
  | Access.Read -> t.reads <- t.reads + 1
  | Access.Write -> t.writes <- t.writes + 1

let rec uniform_from sizes size i last =
  i > last
  || (Bigarray.Array1.unsafe_get sizes i = size
     && uniform_from sizes size (i + 1) last)

let blit_plane src ~src_pos dst ~dst_pos ~n =
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src src_pos n)
    (Bigarray.Array1.sub dst dst_pos n)

let record_batch t batch ~first ~n =
  Sink.Batch.check_slice batch ~first ~n;
  let sizes = Sink.Batch.sizes batch in
  let writes = ref 0 in
  for i = first to first + n - 1 do
    if Sink.Batch.is_write batch i then incr writes
  done;
  let pos = ref first and left = ref n in
  while !left > 0 do
    let chunk = tail t ~size:(Bigarray.Array1.unsafe_get sizes !pos) in
    let at = t.len mod t.chunk_capacity in
    let k = min !left (t.chunk_capacity - at) in
    let chunk =
      if
        shares t chunk
        && not (uniform_from sizes t.uniform !pos (!pos + k - 1))
      then own_sizes t
      else chunk
    in
    if shares t chunk then begin
      blit_plane (Sink.Batch.addrs batch) ~src_pos:!pos
        (Sink.Batch.addrs chunk) ~dst_pos:at ~n:k;
      blit_plane (Sink.Batch.ops batch) ~src_pos:!pos (Sink.Batch.ops chunk)
        ~dst_pos:at ~n:k
    end
    else Sink.Batch.blit batch ~src_pos:!pos chunk ~dst_pos:at ~n:k;
    t.len <- t.len + k;
    pos := !pos + k;
    left := !left - k
  done;
  t.writes <- t.writes + !writes;
  t.reads <- t.reads + n - !writes

(* The push buffer only stages records on their way into the chunks:
   one chunk's worth is enough. *)
let sink ?(name = "trace-log") t =
  Sink.create ~name
    ~capacity:(min t.chunk_capacity Sink.default_capacity)
    (fun batch ~first ~n -> record_batch t batch ~first ~n)

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
