(** The sweep engine: executes a {!Matrix.t} (or any list of cells) on a
    domain pool with an optional content-addressed result cache.

    Execution order never leaks into output: cache lookups and stores run
    serially on the calling domain, only the cache misses' execution fans
    out — one task per {!Cell.group}, one application pass per group —
    and outcomes are collected in cell order, so a sweep's rendered
    report is byte-identical regardless of [jobs] and of which cells were
    cache hits. *)

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
}

val run :
  ?jobs:int -> ?cache:Cache.t -> ?trace:string -> Matrix.t -> outcome array * stats
(** [jobs] defaults to {!Nvsc_team.Pool.default_jobs}.  Without [cache]
    every cell executes and [hits]/[misses]/[evictions] stay 0.  With [trace] (an
    [.nvt] file) every cell replays the recorded stream instead of
    re-running its application, and the trace's content digest is stamped
    into each spec before lookup — so the cache keys on trace content and
    a warm re-analysis of the same trace reports [misses=0]. *)

val run_specs :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?trace:string ->
  Cell.spec array ->
  outcome array * stats
(** {!run} over explicit cells, in the given order; the specs are used as
    given (a trace-fed spec should already pin the trace's digest).  When
    the misses form a single group, the group gets the whole [jobs] width
    for its technology comparison; otherwise the groups spread across the
    width and each compares serially. *)

val miss_groups :
  (Cell.spec * Cell.payload option) array -> (int * Cell.spec) list list
(** The cells a cache lookup missed ([None]), with their indices, in
    {!Cell.group}s: one application pass each. *)

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
