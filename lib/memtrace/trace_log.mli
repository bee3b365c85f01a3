(** In-memory recording of an access stream for later replay.

    Table VI replays one cache-filtered main-memory trace into a fresh
    memory-system simulation per technology; this log — stored directly as
    {!Sink.Batch.t}s, no per-record allocation — is the carrier.
    NV-SCAVENGER itself computes statistics on the fly and never stores raw
    traces (§III-D) — the log exists for the *simulator* hand-off,
    mirroring the paper's "trace files" between the tool and DRAMSim2.

    The storage is a sequence of fixed-capacity chunks: the log grows by
    appending a chunk, never by copying what it holds, and
    {!replay_batch} hands the recorded stream to a {!Sink.t} as one
    zero-copy slice per chunk.  While every record has the first
    record's size (a cache filter's trace is all one line size), the
    chunks share one read-only size plane; a record of another size
    gives the chunk it lands in a plane of its own. *)

type t

val create : ?chunk_capacity:int -> unit -> t
(** [chunk_capacity] (default 16384) is the number of records per chunk; raises [Invalid_argument "Trace_log.create"] unless
    it is positive.  No chunk is allocated before the first record. *)

val record_raw : t -> addr:int -> size:int -> op:Access.op -> unit
(** Append one access. *)

val record_batch : t -> Sink.Batch.t -> first:int -> n:int -> unit
(** Append a batch slice (bulk blit, split across chunk boundaries).
    Raises [Invalid_argument] on a slice outside the batch. *)

val sink : ?name:string -> t -> Sink.t
(** A sink that records everything delivered or pushed to it into the
    log.  Its push buffer holds at most one chunk. *)

val length : t -> int

val iter_slices : t -> Sink.consumer -> unit
(** Hand the recorded stream to a consumer in order, one slice per chunk
    (no call for an empty log).  The consumer must not mutate or retain
    the batches. *)

val replay_batch : t -> Sink.t -> unit
(** Deliver the recorded stream to [sink], one zero-copy
    {!Sink.deliver} per chunk. *)

val reads : t -> int
val writes : t -> int

val clear : t -> unit
(** Forget every record; the chunks are kept for reuse. *)
