(** The sweep engine: the one executor from cell specs to outcomes, for
    every [nvscav] analysis subcommand, [experiments.exe] and the serve
    daemon, with an optional content-addressed result cache.

    Execution order never leaks into output: every cache lookup runs
    serially on the calling thread before anything executes, only the
    misses fan out — one pool task per {!Cell.group}, one application
    pass per group — and outcomes are collected, stored and handed on in
    cell order, so a sweep's rendered report is byte-identical regardless
    of [jobs] and of which cells were cache hits. *)

type outcome = {
  spec : Cell.spec;
  payload : Cell.payload;
  cached : bool;  (** served from the cache, not re-executed *)
}

type stats = {
  cells : int;
  hits : int;
  misses : int;
  evictions : int;
  jobs : int;
      (** domains the misses ran on: at most one per group, or, for a lone
          group, one per technology its power cell compares (else 1) *)
}

val run :
  ?jobs:int -> ?cache:Cache.t -> ?trace:string -> Matrix.t -> outcome array * stats
(** [jobs] defaults to {!Nvsc_team.Pool.default_jobs}.  Without [cache]
    every cell executes and [hits]/[misses]/[evictions] stay 0.  With [trace] (an
    [.nvt] file) every cell replays the recorded stream instead of
    re-running its application, and the trace's content digest is stamped
    into each spec before lookup — so the cache keys on trace content and
    a warm re-analysis of the same trace reports [misses=0]. *)

exception Cancelled
(** A miss group was dropped by the [cancelled] hook before it started. *)

val run_specs :
  ?jobs:int ->
  ?pool:Nvsc_team.Pool.t ->
  ?cancelled:(unit -> bool) ->
  ?cache:Cache.t ->
  ?trace:string ->
  ?on_outcome:(int -> outcome -> unit) ->
  Cell.spec array ->
  outcome array * stats
(** {!run} over explicit cells, in the given order; the specs are used as
    given (a trace-fed spec should already pin the trace's digest).

    Each outcome is handed to [on_outcome] with its index, in cell order,
    as soon as it and all earlier ones are ready, and each computed
    payload is stored into [cache] at the same point, from the calling
    thread.  [hits] and [misses] count this call's lookups; [evictions]
    counts the entries the cache evicted during the call.

    Without [pool], the misses run on a {!Nvsc_team.Pool.with_pool} of
    [jobs] domains, the caller included: a lone group runs on the caller
    with the whole [jobs] width for its technology comparison; several
    groups spread across the width (at most one domain per group) and
    each compares serially.  With [pool] (a resident pool, whose width
    overrides [jobs]) every group is a task on it and compares serially,
    so pools never nest; [cancelled] is polled as each group is about to
    start.

    If a group raises, or is cancelled (raising {!Cancelled}), no later
    outcome is handed on, but every group already submitted is still
    awaited and stored before the first failure, in cell order, is
    re-raised. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line [sweep: cells=.. hits=.. misses=.. evictions=.. jobs=..]. *)

val pp_outcomes : Format.formatter -> outcome array -> unit
(** Render every cell's report section, in matrix order. *)

(** {1 The experiments pipeline}

    [bin/experiments.exe] regenerates EXPERIMENTS.md through these
    functions: the matrix holds objects, power and perf cells for each
    paper application (figure 12 at the config's [perf_scale]) and,
    unless the extension studies are skipped, one study cell per
    application; all of them run in one {!run}.  [experiments_data]
    reassembles the cell payloads into the {!Nvsc_core.Experiment.data}
    every table and figure is printed from, and [experiments_texts]
    collects the study cells' sections for
    {!Nvsc_core.Extensions.run_all}. *)

val experiments_matrix : config:Nvsc_core.Experiment.config -> Matrix.t

val with_studies : scale:float -> iterations:int -> Matrix.t -> Matrix.t
(** Add one {!Cell.Study} cell per application, whose traced profile is
    taken at [scale] and [iterations]. *)

val experiments_texts : outcome array -> (string * (string * string) list) list
(** The study cells' payloads as (application, sections), in cell
    order. *)

val experiments_data :
  config:Nvsc_core.Experiment.config ->
  outcome array ->
  Nvsc_core.Experiment.data
(** Raises [Invalid_argument] if the outcomes do not cover the
    experiments matrix (wrong kinds or unknown technology names). *)
