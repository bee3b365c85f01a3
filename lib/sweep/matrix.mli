(** Experiment matrices as first-class values.

    A matrix is the cartesian product of applications × analysis kinds ×
    (for placement cells) technologies at one base configuration, plus a
    list of per-cell overrides.  {!cells} expands it into the flat,
    deterministically ordered cell list the engine schedules: application
    major, then kind in the order given, then technology — the aggregated
    report renders in exactly this order regardless of [--jobs]. *)

type override = {
  o_app : string option;  (** [None] applies to every application *)
  o_kind : Cell.kind option;  (** [None] applies to every kind *)
  o_scale : float option;
  o_iterations : int option;
}

type t = {
  apps : string list;
  kinds : Cell.kind list;
  techs : Nvsc_nvram.Technology.tech list;
      (** technologies for [Place] cells (one cell per technology) *)
  scale : float;
  iterations : int;
  overrides : override list;  (** applied in order; later entries win *)
}

val default : t
(** The paper's four applications × every analysis kind, scale 1.0, 10
    iterations, STTRAM as the placement technology. *)

val make :
  ?apps:string list ->
  ?kinds:Cell.kind list ->
  ?techs:string list ->
  ?scale:float ->
  ?iterations:int ->
  ?overrides:override list ->
  unit ->
  (t, string) result
(** Validating constructor: unknown application, kind or technology names
    are reported instead of raising. *)

val parse_override : string -> (override, string) result
(** Parse a [key=value[,key=value...]] spec with keys [app], [kind],
    [scale] and [iterations], e.g. ["kind=perf,scale=0.5"] or
    ["app=cam,iterations=3"]. *)

val cells : t -> Cell.spec list
(** Deterministic expansion (see above); overrides are applied to every
    matching cell, except that a perf cell always replays one iteration. *)
