(** NVSC-Persist: the dynamic crash-consistency checker.

    A happens-before pass over the attributed reference stream plus the
    persist events ({!Nvsc_appkit.Ctx.persist} and friends).  For every
    object declared persistent it tracks the durability state of each
    cache line — clean, dirty, or flushing (written back but not yet
    fenced) — and checks the epoch contract: by the time an epoch
    commits, every line of the persist set must be durable.

    Defect classes reported (see {!Diagnostic.klass}):
    - {e unflushed-at-commit}: dirty lines at epoch commit;
    - {e store-during-flush}: a store overtakes an unfenced write-back;
    - {e torn-checkpoint}: flushed-but-unfenced lines at commit;
    - {e epoch-unbalanced}: commit without begin, nesting, label
      mismatch, or an epoch left open at the end of the run;
    - {e redundant-flush} / {e useless-fence} (warnings): flush covering
      no dirty line, fence with nothing in flight;
    - {e persist-write-heavy} (warning): the persist set checked
      against the run's per-object profile ({!check_set}, live runs
      only).

    The checker runs identically live (attached to a {!Nvsc_appkit.Ctx})
    and over a recorded v2 [.nvt] trace: both register one callback set
    (objects, phases, persist actions, attributed reference slices) with
    {!Nvsc_appkit.Ctx.observe} or {!Nvsc_memtrace.Trace_codec.stream},
    whose labels and types agree.  Because persist actions flush the
    emission batch before they apply, verdicts are invariant in the batch
    capacity and identical between the two modes.  Replayed findings are
    additionally stamped with a {!Diagnostic.source} trace position. *)

type t

val default_line_bytes : int
(** 64, the cache-line granularity of flush tracking. *)

(** Work-done counters, the input to {!Nvsc_nvram.Persist_cost}. *)
type stats = {
  mutable stores_checked : int;  (** stores that hit the persist set *)
  mutable flushes : int;  (** flush events *)
  mutable flushed_lines : int;  (** cache lines those flushes covered *)
  mutable fences : int;
  mutable epochs : int;  (** epochs begun *)
}

val attach : ?line_bytes:int -> Nvsc_appkit.Ctx.t -> t
(** Subscribe the checker to the context with {!Nvsc_appkit.Ctx.observe}.
    Attach before running the application; call {!finish} after.
    [line_bytes] must be a positive power of two. *)

val finish : t -> Diagnostic.report
(** Close the analysis with the end-of-run checks (epochs left open) and
    return the report (idempotent). *)

val wear_threshold : float
(** 4.0 writes/word/iteration.  State checkpointed once per iteration
    scores ~1; a write-hammered working array scores far higher. *)

val check_set : t -> iterations:int -> Nvsc_placement.Item.t list -> unit
(** Check the declared persist set against the main-loop profile of the
    run the checker watched, before {!finish}: the items hold one per
    global, heap and stack-frame object, with main-loop reads and writes
    over [iterations] iterations.  A member written more than
    {!wear_threshold} times per word per main-loop iteration is
    reported as {e persist-write-heavy} (warning): PCRAM wear and write
    latency dominate there.  Nothing is checked when no object was
    declared persistent. *)

val stats : t -> stats

val refs_checked : t -> int
(** References scanned (all of them, not just persist-set stores). *)

val epoch_boundaries : t -> int
(** Epoch begin/commit events processed so far.  After a whole-trace
    {!replay}: the number of crash-injection points [nvscav crashsim]
    checks. *)

val replay :
  ?line_bytes:int ->
  ?at_boundary:(int -> Diagnostic.report -> unit) ->
  string ->
  Diagnostic.report * t
(** Run the checker over a recorded [.nvt] trace, in one pass.
    [at_boundary k r] is called just after the [k]-th epoch boundary
    (begin or commit, 0-based, in stream order) has been processed, with
    the report of a crash injected there: a crash is logical truncation
    of the stream, so [r] holds exactly the defects observable in the
    surviving prefix, and no end-of-run check applies (an epoch open at
    the crash point is the crash, not a defect).  On a v1 trace there
    are no persist events: the report is clean and zero epochs are
    seen. *)
