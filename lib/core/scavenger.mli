(** NV-Scavenger: run an instrumented application and collect everything
    the paper's analyses need in one pass (paper §III, figure 1).

    The pipeline mirrors the tool's diagram: the application's reference
    stream is attributed to memory objects on the fly (statistics, no raw
    trace retained), while a copy of the stream is filtered through the
    Table II cache hierarchy to produce the main-memory trace handed to
    the power simulator.

    The run is configured by a first-class {!Config.t} record (no optional
    -argument sprawl): build one from {!Config.default} with the
    functional updates, and pass it to {!run}.  Runs are instrumented with
    {!Nvsc_obs.Span}s
    ([scavenger.run] > [scavenger.setup] / [scavenger.app] /
    [scavenger.analysis]) and feed the {!Nvsc_obs.Metrics} registry
    ([scavenger.runs], [scavenger.pipeline.*], [scavenger.unattributed],
    [sanitizer.findings]); both are inert until the recorder is armed
    (spans) or a snapshot is taken (metrics). *)

type result = {
  app_name : string;
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  iterations : int;
  scale : float;
  footprint_bytes : int;  (** sum of all object sizes (scaled run) *)
  total_main_refs : int;  (** references during main-loop iterations *)
  metrics : Object_metrics.t list;
  fast_tallies : Nvsc_appkit.Ctx.fast_tally array;
      (** index 0 = pre+post, 1..iterations = main loop (fast stack
          method) *)
  mem_trace : Nvsc_memtrace.Trace_log.t option;
      (** cache-filtered main-memory trace of the main loop, when
          requested *)
  l1_miss_rate : float;
  l2_miss_rate : float;
  unattributed : int;  (** references that resolved to no object *)
  pipeline : Nvsc_appkit.Ctx.pipeline_stats;
      (** reference-stream transport counters: batches delivered, flush
          causes, per-sink totals (pipeline self-observability) *)
  sanitizer : Nvsc_sanitizer.Diagnostic.report option;
      (** NVSC-San trace-sanitizer report, when [sanitize] was set *)
  persist_report : Nvsc_sanitizer.Diagnostic.report option;
      (** NVSC-Persist report, when [persist] was set: the checker's
          crash-consistency verdict plus
          {!Nvsc_sanitizer.Persist_check.check_set} over this run's
          object metrics *)
  persist_stats : Nvsc_sanitizer.Persist_check.stats option;
      (** the checker's flush/fence work counters — what
          {!Nvsc_nvram.Persist_cost} prices per technology *)
}

(** Run configuration.  {!Config.default} is the paper's setting: full
    scale, 10 main-loop iterations, no trace, no sampling, no sanitizer. *)
module Config : sig
  type t = {
    scale : float;  (** data-size multiplier *)
    iterations : int;  (** main-loop iterations to instrument *)
    with_trace : bool;  (** retain the cache-filtered main-memory trace *)
    sampling : (int * int) option;  (** [(period, sample_length)], §III-D *)
    batch_capacity : int option;
        (** emission batch size override (results are invariant in it) *)
    sanitize : bool;  (** attach the NVSC-San trace sanitizer *)
    check_init : bool;  (** sanitizer: also track uninitialised reads *)
    persist : bool;  (** attach the NVSC-Persist crash-consistency checker *)
  }

  val default : t

  (** Functional updates, pipeline-style:
      [Config.(default |> with_scale 0.5 |> with_trace true)]. *)

  val with_scale : float -> t -> t
  val with_iterations : int -> t -> t
  val with_trace : bool -> t -> t
  val with_sampling : period:int -> sample_length:int -> t -> t
  val with_batch_capacity : int -> t -> t

  val with_sanitize : ?check_init:bool -> bool -> t -> t
  (** [check_init] defaults to false and is only meaningful when the
      sanitizer is being enabled. *)

  val with_persist : bool -> t -> t
  (** Attach {!Nvsc_sanitizer.Persist_check} to the run: the result's
      [persist_report] carries its verdict on the app's epoch/flush/fence
      annotations and its persist set.  Independent of [sanitize]. *)

  val with_shards : int -> t -> t
  (** Has no effect: checks [n >= 1] (else [Invalid_argument]) and
      returns the configuration unchanged.  It remains only for the
      nvbench ledger's [core.scavenger_s.shards2] row and goes away with
      that row in the next benchmark change. *)
end

val run : Config.t -> (module Nvsc_apps.Workload.APP) -> result
(** Run the application under the given configuration.  [sanitize] tees
    the NVSC-San trace sanitizer into the pipeline: the context gets
    allocation redzones, batch accessors run bounds-checked, and the
    result carries the diagnostic report. *)

val lint :
  scale:float ->
  iterations:int ->
  check_init:bool ->
  persist:bool ->
  (module Nvsc_apps.Workload.APP) ->
  Nvsc_sanitizer.Diagnostic.report * Nvsc_sanitizer.Persist_check.stats option
(** [nvscav lint]: {!Nvsc_sanitizer.Config_lint.all} for the application,
    merged with the report of one {!run} under the trace sanitizer (and,
    with [persist], NVSC-Persist), plus the persist checker's work
    counters.  The application runs exactly once. *)

val stack_metrics : result -> Object_metrics.t list
val global_metrics : result -> Object_metrics.t list
val heap_metrics : result -> Object_metrics.t list
val global_and_heap_metrics : result -> Object_metrics.t list
