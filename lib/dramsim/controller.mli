(** Event-driven memory controller.

    Transactions arrive "at full speed" (the paper's trace-driven mode): a
    new transaction is admitted as soon as a slot frees in the in-flight
    window, which models the driving core's effective memory-level
    parallelism.  Each transaction is decoded to (rank, bank, row, column),
    serialised against its bank's readiness and the shared data bus, pays a
    row-activation penalty on a row-buffer miss (open-page policy), and —
    for writes — holds the bank for the technology's write-recovery time.
    DRAM ranks additionally block periodically for refresh.

    Energy is accumulated per event (burst, activation, refresh);
    background power is constant.  Average power is total energy over the
    simulated makespan plus background. *)

type t

type row_policy =
  | Open_page  (** keep the row open after an access (default) *)
  | Closed_page
      (** precharge eagerly after every access: each access pays tRCD but
          never tRP — better under low row locality *)

type scheduler =
  | Fcfs  (** issue transactions strictly in arrival order (default) *)
  | Fr_fcfs of int
      (** first-ready, first-come-first-served over a lookahead of the
          given depth: among the buffered transactions, one that hits an
          open row issues first; ties break to the oldest.  DRAMSim2's
          scheduling discipline. *)

val create :
  ?org:Org.t ->
  ?scheme:Address_mapping.scheme ->
  ?window:int ->
  ?row_policy:row_policy ->
  ?scheduler:scheduler ->
  tech:Nvsc_nvram.Technology.t ->
  unit ->
  t
(** [window] (default 8) is the number of concurrently outstanding
    transactions; [scheme] defaults to {!Address_mapping.Row_bank_rank_col}. *)

val submit : t -> Nvsc_memtrace.Access.t -> unit
(** Process one line-granularity memory transaction.  Under [Fr_fcfs],
    transactions may be buffered; {!flush} (or {!stats}/{!elapsed_ns},
    which flush implicitly) issues any remainder. *)

val submit_ref : t -> addr:int -> op:Nvsc_memtrace.Access.op -> unit
(** Scalar {!submit}: the same transaction without materialising an
    [Access.t] (batch consumers' hot path). *)

val consume : t -> Nvsc_memtrace.Sink.Batch.t -> first:int -> n:int -> unit
(** Submit a batch slice of transactions in order (the sink-consumer
    shape). *)

val sink : ?name:string -> t -> Nvsc_memtrace.Sink.t
(** A sink feeding this controller via {!consume}. *)

val flush : t -> unit
(** Issue every buffered transaction (no-op under [Fcfs]). *)

val elapsed_ns : t -> float
(** Makespan so far (time the last event finishes). *)

(** Aggregate results; see {!stats}. *)
type stats = {
  accesses : int;
  reads : int;
  writes : int;
  row_hits : int;
  row_misses : int;
  activations : int;
  refreshes : int;
  elapsed_ns : float;
  burst_energy_nj : float;
  act_pre_energy_nj : float;
  refresh_energy_nj : float;
  background_energy_nj : float;
  total_energy_nj : float;  (** including background *)
  avg_power_w : float;
  avg_latency_ns : float;  (** admission-to-completion mean *)
  p50_latency_ns : float;
  p95_latency_ns : float;
  p99_latency_ns : float;
      (** latency tail — what bank conflicts, write recovery and refresh
          blackouts cost.  The percentiles are exact (linear
          interpolation between the order statistics at floor and ceil
          of [p * (n - 1)]): the controller keeps a histogram of the
          distinct latencies, not one entry per transaction. *)
  bandwidth_gbs : float;
  row_hit_rate : float;
}

val stats : t -> stats
(** Snapshot of the statistics at the current makespan. *)
