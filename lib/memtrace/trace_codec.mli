(** NVT: the chunked, versioned binary trace format (ROADMAP item 1).

    An [.nvt] file decouples trace {e generation} from trace {e analysis}:
    [nvscav record] writes the raw emission stream once — every reference
    with its emission-time object attribution, interleaved committed
    plain-instruction counts, and phase-change markers — and any number of
    downstream analyses replay it without re-running the application.

    Wire layout (all integers little-endian; [varint] is LEB128, [zigzag]
    maps signed to unsigned before varint):

    {v
    file    := header chunk* trailer eof
    header  := "NVSCAVT1" | u16 version=2 | u32 len | meta
    meta    := str app | str description | str input_description
             | f64 paper_footprint_mb | f64 scale | varint iterations
             | varint batch_capacity | varint chunk_capacity
    chunk   := 'C' | u32 len | md5(payload) | payload
    payload := varint nrefs | varint nobjs | objdesc*nobjs | token*
    token   := 0 phase                      (phase change)
             | 1 varint n                   (n committed plain instructions)
             | 2 varint k record*k          (k references)
             | 3 persist                    (v2+: crash-consistency event)
    record  := varint (size<<1 | is_write)
             | zigzag varint (addr  - prev_addr)
             | zigzag varint (obj_id - prev_obj_id)   (-1 = unattributed)
    persist := 0 u8 checkpoint str label    (epoch begin)
             | 1 u8 checkpoint str label    (epoch commit)
             | 2 varint obj_id off len      (flush lines of [off,off+len))
             | 3                            (fence)
             | 4 varint obj_id              (declare object persistent)
    objdesc := varint id | str name | u8 kind | varint base | varint size
             | str signature | varint n str*n | phase | u8 live
    phase   := varint (0 = Pre, 1 = Post, 1+i = Main i)
    trailer := 'T' | u32 len | md5(payload) |
               varint refs reads writes | objdesc-list | objdesc-list |
               varint nchunks | (varint offset, varint refs, md5)*nchunks |
               md5 trace-digest
    eof     := u64 trailer-offset | "NVSCAVTE"
    v}

    Every chunk is independently decodable: the delta baselines reset at
    each chunk boundary, the per-chunk object table carries descriptors for
    ids first referenced in that chunk, and the trailing chunk index gives
    each chunk's file offset, record count and payload digest — readers
    seek to the trailer via the fixed-size [eof] block.  The whole-trace
    digest is [md5(md5(meta) ^ md5(chunk_1) ^ ... ^ md5(chunk_n))]: it
    identifies the trace {e content} for cache keying (the sweep engine
    folds it into its cell digests) and is verifiable from the header and
    index alone.

    Versioning: the 8-byte magic names major format revisions (a reader
    rejects a foreign magic outright); the u16 version counts compatible
    extensions within a magic — a reader accepts every version from 1 up
    to its own and rejects newer ones.  A version bump may append trailing
    meta/trailer fields or introduce new chunk token tags; a new tag is
    only legal in files whose header already declares the version that
    defined it (a v1 file containing tag 3 is corrupt, not forward-
    compatible).  v1 traces (no persist events) remain fully readable:
    every v1 byte sequence decodes identically under a v2 reader.
    Re-defining the meaning of an existing tag or field requires a new
    magic.

    All decode errors raise {!Error} naming the file and the failure
    (truncation, digest mismatch, bad magic, unsupported version). *)

exception Error of string

type meta = {
  app : string;
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  scale : float;
  iterations : int;
  batch_capacity : int;  (** emission batch capacity of the recording run *)
}

val fingerprint : meta -> string
(** Human-readable app/config fingerprint ("app|scale|iterations"), for
    report labelling. *)

type summary = {
  refs : int;
  reads : int;
  writes : int;
  chunks : int;
  bytes : int;  (** total file size on disk *)
  digest : string;  (** whole-trace digest, hex *)
}

(** Streaming writer: references, instruction counts and phase markers
    append in program order; chunks seal and hit the disk every
    [chunk_capacity] references, so recording is out-of-core — memory use
    is bounded by the chunk size, never the trace length. *)
module Writer : sig
  type t

  val create :
    ?version:int ->
    ?chunk_capacity:int ->
    ?resolve:(int -> Mem_object.t option) ->
    path:string ->
    meta:meta ->
    unit ->
    t
  (** [version] (default: the current format version, 2) selects the
      declared wire version; pass [1] to write a v1 trace for
      compatibility testing ({!add_persist} then raises).
      [chunk_capacity] (default {!Sink.default_capacity}) is the maximum
      references per chunk.  [resolve] maps an object id to its descriptor
      for the per-chunk attribution tables (default: none resolve, tables
      stay empty — the trailer tables passed to {!finish} still apply). *)

  val add_ref :
    t -> addr:int -> size:int -> op:Access.op -> obj_id:int -> unit
  (** Append one reference.  [obj_id] is the emission-time attribution
      ([-1] = unattributed). *)

  val add_batch :
    t -> ?obj_ids:int array -> Sink.Batch.t -> first:int -> n:int -> unit
  (** Append a batch slice ([obj_ids] defaults to all-unattributed). *)

  val add_instr : t -> int -> unit
  (** Append a committed plain-instruction count (positive). *)

  val add_phase : t -> Mem_object.phase -> unit

  val add_persist : t -> Persist.t -> unit
  (** Append a crash-consistency event (v2+; raises {!Error} on a writer
      created with [~version:1]). *)

  val finish :
    t ->
    ?objects:Mem_object.t list ->
    ?stack_objects:Mem_object.t list ->
    unit ->
    summary
  (** Seal the final chunk, write the trailer — [objects] is the final
      global/heap table in registration order, [stack_objects] the routine
      frames in id order; both authoritative for replayed analyses — and
      close the file. *)

  val abort : t -> unit
  (** Close the underlying channel without writing a trailer (error
      paths); the partial file is left truncated and will be rejected by
      {!Reader.open_}. *)
end

(** Seekable reader.  {!Reader.open_} reads only the fixed header and the
    trailer (meta, final object tables, chunk index, digests) and verifies
    the whole-trace digest; the chunks stream on demand through
    {!stream}. *)
module Reader : sig
  type t

  val open_ : string -> t
  (** Raises {!Error} on a foreign or damaged file. *)

  val meta : t -> meta

  val version : t -> int
  (** The wire version declared in the file header (1 or 2). *)

  val chunk_capacity : t -> int
  val refs : t -> int
  val reads : t -> int
  val writes : t -> int
  val chunks : t -> int

  val digest : t -> string
  (** Whole-trace content digest, hex — the sweep cache key. *)

  val objects : t -> Mem_object.t list
  (** Final global/heap objects, registry registration order. *)

  val stack_objects : t -> Mem_object.t list
  (** Final routine frame objects, id order. *)

  val close : t -> unit
end

val stream :
  Reader.t ->
  ?on_objects:(Mem_object.t list -> unit) ->
  ?on_phase:(Mem_object.phase -> unit) ->
  ?on_instr:(int -> unit) ->
  ?on_persist:(Persist.t -> unit) ->
  ?on_chunk:(int -> unit) ->
  on_refs:(Sink.Batch.t -> obj_ids:int array -> first:int -> n:int -> unit) ->
  unit ->
  unit
(** Decode the trace in program order, one chunk at a time: each chunk's
    payload is read once through the reader's channel into one reused
    buffer, its digest verified, then decoded from that buffer.  References
    are decoded into one reusable {!Sink.Batch.t} (plus a parallel
    attribution array) delivered in slices that never span a chunk, phase
    or persist token, nor an instruction token when [on_instr] is given —
    without it, instruction counts are skipped and do not split slices.
    Peak live memory is bounded by the chunk size, not the trace length.
    Consumers must not retain the batch across callbacks.  [on_persist]
    receives v2 crash-consistency events in stream order (never fires on a
    v1 trace); [on_chunk] fires with the chunk index before each chunk's
    records, so consumers can stamp findings with a seekable location.  May
    be called repeatedly on one reader; each call re-streams from the first
    chunk.
    Raises {!Error} on a truncated or corrupted chunk. *)
