(** In-memory recording of an access stream for later replay.

    Table VI replays one cache-filtered main-memory trace into a fresh
    memory-system simulation per technology; this log — stored directly as
    a {!Sink.Batch.t}, no per-record allocation — is the carrier.
    NV-SCAVENGER itself computes statistics on the fly and never stores raw
    traces (§III-D) — the log exists for the *simulator* hand-off,
    mirroring the paper's "trace files" between the tool and DRAMSim2.

    Because the storage {e is} a batch, {!replay_batch} hands the whole
    recorded stream to a {!Sink.t} as one zero-copy delivery. *)

type t

val create : ?initial_capacity:int -> unit -> t

val record_raw : t -> addr:int -> size:int -> op:Access.op -> unit
(** Append one access. *)

val record_batch : t -> Sink.Batch.t -> first:int -> n:int -> unit
(** Append a batch slice (bulk blit).  Raises [Invalid_argument] on a
    slice outside the batch. *)

val sink : ?name:string -> t -> Sink.t
(** A sink that records everything delivered to it into the log. *)

val length : t -> int

val replay_batch : t -> Sink.t -> unit
(** Deliver the whole recorded stream to [sink] as a single zero-copy
    batch. *)

val as_batch : t -> Sink.Batch.t * int
(** The underlying storage and its valid length.  Callers must not mutate
    or retain it across further recording. *)

val reads : t -> int
val writes : t -> int

val clear : t -> unit
