(** Per-object access metrics over the main computation loop.

    The paper's three NVRAM metrics (§II) evaluated per memory object:
    read/write ratio, memory size, and reference rate (expressed as the
    object's share of all main-loop references), plus the per-iteration
    series needed for the variance study (§VII-C).  Pre/post-phase
    references (iteration 0) are kept separate, so initialisation writes do
    not pollute main-loop ratios — this is what makes data written during
    setup and only read afterwards register as read-only, as the paper
    classifies it. *)

type t = {
  obj : Nvsc_memtrace.Mem_object.t;
  reads : int;  (** main-loop reads (iterations >= 1) *)
  writes : int;
  rw_ratio : float;
      (** {!Nvsc_util.Stats.ratio}: [infinity] for read-only objects *)
  ref_share : float;  (** fraction of all main-loop references *)
  per_iter_reads : int array;  (** index 0 = iteration 1 *)
  per_iter_writes : int array;
  iterations_used : int;  (** number of main-loop iterations touched *)
  touched_outside_main : bool;  (** referenced during pre/post (iter 0) *)
}

val size_bytes : t -> int

val is_read_only : t -> bool
(** Main-loop reads > 0 and main-loop writes = 0. *)

val is_untouched_in_main : t -> bool

val per_iter_ratio : t -> iter:int -> float
(** Read/write ratio within one main-loop iteration (1-based). *)

val per_iter_refs : t -> iter:int -> int

val item : t -> Nvsc_placement.Item.t
(** The object's main-loop profile as a placement item. *)

val suitability_metrics : t -> Nvsc_nvram.Suitability.metrics

val collect : Nvsc_appkit.Ctx.t -> iterations:int -> t list
(** Metrics for every registered object — globals, heap (live or dead) and
    routine stack frames — after an application run of [iterations]
    main-loop iterations. *)

val collect_of :
  counters:Nvsc_memtrace.Counters.t ->
  objects:Nvsc_memtrace.Mem_object.t list ->
  iterations:int ->
  t list
(** {!collect} decoupled from a live context: metrics from standalone
    per-object counters and an explicit object list — how trace replay
    rebuilds the report without re-running the application. *)

val total_main_refs : Nvsc_appkit.Ctx.t -> iterations:int -> int

val total_main_refs_of : Nvsc_memtrace.Counters.t -> iterations:int -> int
