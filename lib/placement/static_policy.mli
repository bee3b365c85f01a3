(** Static (profile-driven) placement: decide once from a whole-run
    profile, never migrate.

    Implements the paper's §II management policy: place as much data as
    possible in NVRAM while keeping performance-critical, frequently
    written data in DRAM.  Items the suitability classifier accepts are
    sent to NVRAM best-candidates-first (largest static-power win per unit
    of write exposure); everything else — and whatever no longer fits —
    stays in DRAM. *)

val plan :
  ?thresholds:Nvsc_nvram.Suitability.thresholds ->
  hybrid:Hybrid_memory.t ->
  Item.t list ->
  Hybrid_memory.t
(** Place every item into [hybrid] (which must be empty of these items)
    and return it.  Items that fit in neither memory raise
    [Invalid_argument] — size the hybrid for the workload. *)

val score : Item.t -> float
(** NVRAM-desirability ordering: larger is placed first.  Size over
    (1 + write flux) — big, rarely-written objects win. *)
