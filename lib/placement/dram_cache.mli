(** Hierarchical hybrid memory: DRAM as a page cache in front of NVRAM.

    This is the *other* hybrid design of the paper's §II — "using DRAM as a
    cache to reduce NVRAM access latency" (Qureshi et al.'s organisation).
    The paper argues against it for scientific workloads: "for workloads
    with poor locality, the DRAM cache actually lowers performance and
    increases energy consumption", and chooses the horizontal design this
    library's {!Hybrid_memory} models.  This module makes that argument
    checkable: feed the same main-memory trace to both organisations and
    compare.

    Model (first-order, all knobs explicit):
    - the DRAM cache is set-associative with LRU at page granularity;
    - a hit costs DRAM latency;
    - a miss costs the NVRAM read latency for the critical line plus a
      page fill (page transfer at bus bandwidth, read from NVRAM);
    - evicting a dirty page writes it back to NVRAM in full;
    - traffic bytes are accounted per memory, and NVRAM cell writes per
      line (endurance exposure). *)

type t

val create :
  ?page_bytes:int ->
  ?dram_pages:int ->
  ?associativity:int ->
  ?bus_gb_per_s:float ->
  tech:Nvsc_nvram.Technology.t ->
  unit ->
  t
(** Defaults: 4 KiB pages, 2048 pages of DRAM (8 MiB), 8-way, 12.8 GB/s.
    [dram_pages] is rounded up to a whole number of sets.  [tech] is the
    backing NVRAM. *)

val access_raw : t -> addr:int -> size:int -> op:Nvsc_memtrace.Access.op -> unit
(** One main-memory access (line granularity, as produced by the cache
    hierarchy or a trace log). *)

val consume : t -> Nvsc_memtrace.Sink.Batch.t -> first:int -> n:int -> unit
(** Run a batch slice through the page cache in order.  Raises
    [Invalid_argument] on a slice outside the batch. *)

val sink : ?name:string -> t -> Nvsc_memtrace.Sink.t
(** A sink feeding this cache via {!consume}. *)

val drain : t -> unit
(** Write every dirty cached page back to NVRAM (end-of-run accounting). *)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  hit_rate : float;
  fills : int;
  dirty_writebacks : int;
  avg_latency_ns : float;
  dram_traffic_bytes : int;
  nvram_traffic_bytes : int;
  nvram_line_writes : int;  (** 64-byte line writes into NVRAM cells *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
