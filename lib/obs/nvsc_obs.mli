(** Nvsc_obs: pipeline-wide observability.

    Three pieces, one layer: nestable timed {!Span}s recorded per-domain,
    a typed {!Metrics} registry (counters, gauges, distributions) that
    absorbs the pipeline's scattered self-observability counters, and two
    exporters — a human {!Profile} self-time table and a {!Chrome_trace}
    JSON file loadable in [chrome://tracing] or Perfetto.

    Instrumentation is always compiled in and globally disarmed by
    default: a disarmed span is a single branch on an [Atomic.t].  The
    [--profile] flags of [nvscav] and [experiments.exe] arm it through
    {!with_profiling}; library users can arm it around one call with
    {!scoped}. *)

module Clock : module type of Clock
module Metrics : module type of Metrics
module Span : module type of Span
module Chrome_trace : module type of Chrome_trace
module Profile : module type of Profile

val enabled : unit -> bool
(** Is the global recorder armed right now? *)

val scoped : (unit -> 'a) -> 'a
(** [scoped f] runs [f] with the recorder armed, restoring the previous
    state afterwards (also on exceptions); inside an armed scope it is
    exactly [f ()]. *)

val reset : unit -> unit
(** Drop all recorded spans and zero all metrics. *)

val with_profiling :
  ?trace_out:string ->
  ?summary:Format.formatter ->
  enabled:bool ->
  (unit -> 'a) ->
  'a
(** The [--profile] driver: when [enabled], reset the recorder, arm it,
    run the callback, then write the Chrome trace to [trace_out] (if
    given) and print the self-time table and the metrics the run touched
    ({!Metrics.touched}) to [summary] (default [stderr], so report stdout
    stays byte-identical).
    When [not enabled], exactly [f ()]. *)
