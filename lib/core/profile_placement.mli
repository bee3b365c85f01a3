(** The placement setup a profile feeds: the placeable items of a run, and
    the hybrid memory the placement studies and the sweep's place cells
    size from it (DRAM and NVRAM halves of twice the footprint each). *)

val items : Scavenger.result -> Nvsc_placement.Item.t list
(** One item per global and heap object, in
    {!Scavenger.global_and_heap_metrics} order; stack frames are not
    placeable. *)

val static_plan :
  tech:Nvsc_nvram.Technology.t ->
  Scavenger.result ->
  Nvsc_placement.Item.t list ->
  Nvsc_placement.Hybrid_memory.t
(** {!Nvsc_placement.Static_policy.plan} of the items over the run's
    hybrid memory, [tech] in the NVRAM half. *)

val dynamic_start :
  tech:Nvsc_nvram.Technology.t ->
  Scavenger.result ->
  Nvsc_placement.Item.t list ->
  Nvsc_placement.Dynamic_policy.t
(** Every item in NVRAM of the run's hybrid memory, under a dynamic
    policy that also demotes popular read-only objects when [tech]'s reads
    cost what DRAM's do (categories 2 and 3). *)
