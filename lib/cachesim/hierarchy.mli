(** Two-level cache hierarchy that filters an application reference stream
    into a main-memory trace (paper §III: "memory traces represent main
    memory accesses due to last level cache misses and cache evictions").

    Data references go through L1D then L2; the resulting DRAM/NVRAM
    traffic — L2 fills (reads) and L2 dirty evictions / forwarded writes
    (writes) — is pushed into a {!Nvsc_memtrace.Sink.t} at line
    granularity, so downstream consumers receive it in flat batches. *)

type t

val create :
  ?l1d:Cache_params.t ->
  ?l2:Cache_params.t ->
  sink:Nvsc_memtrace.Sink.t ->
  unit ->
  t
(** Parameters default to the paper's Table II configuration.  [sink]
    receives each main-memory access (line-sized); it is flushed by
    {!drain}.  Raises [Invalid_argument] unless both levels share one
    line size and it is a power of two. *)

val access_raw : t -> addr:int -> size:int -> op:Nvsc_memtrace.Access.op -> unit
(** Run one application reference through the hierarchy.  References that
    straddle a line boundary are split per line, as hardware would issue
    them.  Raises [Invalid_argument] on a negative address. *)

val consume : t -> Nvsc_memtrace.Sink.Batch.t -> first:int -> n:int -> unit
(** Run a batch slice through the hierarchy in order (the sink-consumer
    shape: wrap with [Sink.create (Hierarchy.consume t)]).  The
    references answered by {!l1_hit} alone are added to the
    [cachesim.filter.probe_hits] metric, once per slice.  Raises
    [Invalid_argument] on a slice outside the batch or a negative
    address. *)

val l1_hit : t -> addr:int -> size:int -> write:bool -> bool
(** One probe ({!Cache.mru_hit}): true when the reference lies in one
    line that the L1 holds in the most recently used way of its set; it
    then counts as an access and an L1 hit.  Otherwise nothing changes,
    and the reference still has to go through {!access_raw} or
    {!access_classified_raw}. *)

val access_classified_raw :
  t -> addr:int -> size:int -> op:Nvsc_memtrace.Access.op -> [ `L1 | `L2 | `Mem ]
(** Like {!access_raw}, additionally reporting the deepest level that had
    to service the reference ([`Mem] when main-memory traffic was
    generated).  For a reference split across lines, the deepest outcome
    wins. *)

val drain : t -> unit
(** Write back all dirty lines (L1 through L2 to memory) so that the
    memory trace accounts for every store, then flush the sink.  Call once
    at end of trace. *)

val reset : t -> unit
(** Invalidate both levels and clear statistics. *)

val l1d : t -> Cache.t
val l2 : t -> Cache.t

val accesses : t -> int
(** Application references processed (after line splitting). *)

val memory_reads : t -> int
val memory_writes : t -> int
(** Line-granularity traffic generated so far (counted at generation time,
    independent of sink buffering). *)
