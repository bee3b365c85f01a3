(** Typed diagnostics for NVSC-San (trace sanitizer + config lint).

    A diagnostic identifies a {e class} of defect, the {e owner} it is
    attributed to (a memory object's name, or a configuration field), an
    aggregated occurrence count and the first occurrence's position in the
    reference stream.  Reports are deterministically ordered — severity,
    then class, then owner — so the same trace always prints the same
    report, regardless of batch capacity. *)

type severity = Error | Warning

type klass =
  | Out_of_bounds  (** reference lands in no object (in a redzone) *)
  | Straddle  (** reference starts inside an object but runs past its end *)
  | Use_after_free  (** reference into a deallocated heap object *)
  | Stale_stack  (** reference into a popped shadow-stack frame *)
  | Unattributed  (** reference resolves to no object at all *)
  | Uninit_read  (** heap read of bytes never written (opt-in) *)
  | Overlap  (** two live registrations cover the same addresses *)
  | Unbalanced_frames  (** push/pop imbalance at a phase boundary *)
  | Leak  (** heap object allocated in the main loop, live at teardown *)
  | Config  (** physically inconsistent simulator configuration *)
  | Unflushed_commit
      (** dirty cache line of a persistent object at epoch commit *)
  | Flush_race  (** store to a line while its flush is still in flight *)
  | Torn_checkpoint
      (** checkpoint epoch whose durability is order-dependent: flushed
          but unfenced lines at commit, or inconsistent state at an
          injected crash point *)
  | Epoch_unbalanced  (** commit without begin, nesting, or epoch left open *)
  | Redundant_flush  (** flush covering no dirty line (perf, not error) *)
  | Useless_fence  (** fence with no flush in flight (perf, not error) *)
  | Persist_write_heavy
      (** persist region whose write intensity makes NVM wear/latency
          costs dominate (paper's model) *)

type occurrence = {
  phase : Nvsc_memtrace.Mem_object.phase;
  index : int;  (** 0-based position in the delivered reference stream *)
}

type source = {
  file : string;  (** the replayed [.nvt] trace *)
  chunk : int;  (** chunk index within the trace *)
  record : int;  (** reference-record ordinal at the finding *)
}
(** Where a replayed-trace finding came from, printed [file:chunk:record]
    so lint output is grep-able back to a seekable trace position. *)

type finding = {
  severity : severity;
  klass : klass;
  owner : string;
  detail : string;  (** from the first occurrence *)
  count : int;
  first : occurrence option;  (** [None] for static (config) findings *)
  source : source option;  (** [None] unless replayed from an [.nvt] *)
}

type report = finding list
(** Always sorted by {!compare_findings}. *)

val klass_to_string : klass -> string
val default_severity : klass -> severity
val compare_findings : finding -> finding -> int
val sort_report : report -> report
val merge : report -> report -> report
val is_clean : report -> bool
val errors : report -> int
val warnings : report -> int
val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

(** Aggregates raw diagnostics into one finding per (class, owner) pair,
    keeping the first occurrence and counting the rest. *)
module Collector : sig
  type t

  val create : unit -> t

  val add :
    t ->
    ?severity:severity ->
    ?occurrence:occurrence ->
    ?source:source ->
    klass ->
    owner:string ->
    detail:string ->
    unit
  (** [severity] defaults to {!default_severity}; [occurrence], [source]
      and [detail] are kept only for the first report of a (class, owner)
      pair. *)

  val report : t -> report
end
