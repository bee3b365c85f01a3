(** Cycle-accounting out-of-order core model (the PTLsim substitute).

    The paper (§V) uses PTLsim solely to vary the main-memory access
    latency and observe how application runtime responds; read and write
    latencies are set equal (making the result a performance lower bound)
    and the whole of main memory is assumed to be the NVRAM under test.

    This model consumes the application's committed instruction stream —
    plain-instruction counts interleaved with memory references in program
    order — and accounts cycles with an interval model:

    - the frontend retires [issue_width] instructions per cycle;
    - L1 hits are pipelined (no added stall beyond the base CPI);
    - L2 hits add their access latency, discounted by out-of-order overlap;
    - main-memory misses are clustered: misses falling within one
      reorder-buffer reach of an open cluster (up to the effective-MLP
      limit) share a single latency; each cluster's latency is then
      overlapped with the independent instructions that follow it, and only
      the remainder stalls the pipeline;
    - TLB misses add a fixed page-walk penalty.

    The memory hierarchy is the paper's Table II cache configuration
    (via {!Nvsc_cachesim.Hierarchy}).

    {2 One classifier, one ledger per latency}

    Most of the model ignores memory latency, so one model serves any
    number of latencies from a single pass over the stream:

    - the {e classifier}, shared, holds the cache hierarchy and the TLB,
      and counts everything latency cannot change: base cycles, L2 and
      TLB stalls, hits and accesses;
    - each {e write model} present (writes as reads, or posted) has its
      own stream prefetcher and miss-cluster state, because a posted
      write miss bypasses both, so the two write models see different
      streams and clusters;
    - each {e ledger} holds what latency does change: its memory-stall
      cycles and, with posted writes, its own write buffer.

    Ledgers change at three points only — a closed miss cluster (charged
    at each ledger's latency), a covered miss's bandwidth slot and a
    posted write (whose buffer is timed by that ledger's own cycle
    count) — and each applies to every ledger of its write model in
    turn.  Each ledger therefore makes the same float additions, in the
    same order, as a one-latency model fed the same stream: its report is
    bit-identical to that model's. *)

type t

val create :
  ?params:Core_params.t ->
  ?l1d:Nvsc_cachesim.Cache_params.t ->
  ?l2:Nvsc_cachesim.Cache_params.t ->
  ?mem_write_latency_ns:float ->
  ?write_buffer_entries:int ->
  mem_latency_ns:float ->
  unit ->
  t
(** A model with one ledger.

    Without [mem_write_latency_ns], writes behave like reads at
    [mem_latency_ns] — the paper's §V assumption ("the current simulator
    does not differentiate between read and write latencies"), which makes
    the result a performance lower bound.

    With [mem_write_latency_ns], that limitation is removed: write misses
    are *posted* through a write buffer of [write_buffer_entries] (default
    16).  A posted write costs only a bandwidth slot; its latency is paid
    by holding a buffer entry for the write duration, and the pipeline
    stalls only when the buffer is full.  This is how hardware actually
    absorbs NVRAM's slow writes, and quantifies how conservative the
    paper's lower bound is.

    @raise Invalid_argument unless every latency is finite and positive
    and [write_buffer_entries] is positive. *)

type latency = {
  mem_latency_ns : float;
  mem_write_latency_ns : float option;
      (** [Some w] posts writes at [w], as in {!create} *)
}
(** One ledger's latencies. *)

val create_ledgers :
  ?params:Core_params.t ->
  ?l1d:Nvsc_cachesim.Cache_params.t ->
  ?l2:Nvsc_cachesim.Cache_params.t ->
  ?write_buffer_entries:int ->
  latency list ->
  t
(** A model with one ledger per latency, in list order; each ledger has
    its own write buffer of [write_buffer_entries].  Posted and unposted
    latencies may be mixed.  {!reports} gives, for each, exactly what
    {!create} with that latency would report.

    @raise Invalid_argument on an empty list or on a latency that is not
    finite and positive. *)

val instructions : t -> int -> unit
(** Account [n] committed non-memory instructions. *)

val access_raw : t -> addr:int -> size:int -> op:Nvsc_memtrace.Access.op -> unit
(** Account one committed memory instruction (program order). *)

val access : t -> Nvsc_memtrace.Access.t -> unit
(** Per-record convenience over {!access_raw}. *)

val consume : t -> Nvsc_memtrace.Sink.Batch.t -> first:int -> n:int -> unit
(** Account a batch slice of memory instructions in program order (the
    sink-consumer shape). *)

type report = {
  instructions : int;
  mem_instructions : int;
  cycles : float;
  base_cycles : float;
  l2_stall_cycles : float;
  mem_stall_cycles : float;
  tlb_stall_cycles : float;
  runtime_ns : float;
  ipc : float;
  l1_hits : int;
  l2_hits : int;
  mem_accesses : int;
  miss_clusters : int;
  tlb_misses : int;
}

val reports : t -> report list
(** One report per ledger, in the order the latencies were given.  A
    cluster still open is charged in the report, not in the model, so
    accounting may continue afterwards. *)

val report : t -> report
(** The first ledger's report — the only one of a model from {!create}. *)
