(** Record-once / analyze-many: the NVT trace endpoints.

    {!record} runs a mini-application once and serializes its raw emission
    stream — every reference with emission-time attribution, instruction
    counts, phase markers — to an [.nvt] file
    ({!Nvsc_memtrace.Trace_codec}).  {!replay} streams such a file back
    through the same analysis pipeline {!Scavenger.run} drives live (cache
    hierarchy, per-object counters, fast tallies) one chunk at a time,
    producing a {!Scavenger.result} whose rendered reports are
    byte-identical to the live run's — without re-executing the
    application, and with peak memory bounded by the chunk size.

    All functions raise {!Nvsc_memtrace.Trace_codec.Error} on a damaged or
    foreign trace file. *)

val record :
  ?batch_capacity:int ->
  ?chunk_capacity:int ->
  scale:float ->
  iterations:int ->
  path:string ->
  (module Nvsc_apps.Workload.APP) ->
  Nvsc_memtrace.Trace_codec.summary
(** Run the application at [scale] for [iterations] main-loop iterations,
    writing its reference stream to [path]: the recorder is one
    {!Nvsc_appkit.Ctx.observe} subscriber whose callbacks append to the
    {!Nvsc_memtrace.Trace_codec.Writer}, so streaming the file back
    delivers the callback sequence a live observer sees.
    [chunk_capacity] bounds references per chunk (default
    {!Nvsc_memtrace.Sink.default_capacity}); recording is out-of-core —
    chunks hit the disk as they fill.  On any
    exception the partial file is left unreadable (no trailer) and the
    exception re-raised. *)

val replay : ?pool:Nvsc_team.Pool.t -> string -> Scavenger.result
(** Stream the trace at [path] through attribution counters, fast tallies
    and the cache hierarchy (main-loop phases only, as live), rebuilding
    the full result — metrics come from the trace's final object tables,
    the main-memory trace from the cache filter.  Replay never
    materializes more than one chunk of references.  Instruction counts
    are not read, so they do not split the slices fed to the cache
    filter.  With a caller's [pool] of two or more domains the filter
    runs as a {!Nvsc_memtrace.Stage} on the second domain while the
    decoder reads the next chunk; the result is the same at every
    width. *)

val perf_replay : string -> Nvsc_cpusim.Perf_model.t -> unit
(** Feed the trace's main-loop references and instruction counts to a
    performance model through {!Experiment.perf_feed} — the trace-driven
    counterpart of {!Experiment.perf_replay}, for
    {!Nvsc_cpusim.Sensitivity.run}'s [~replay].  Byte-identical to live
    perf reports when the trace was recorded with [iterations = 1] at the
    perf scale. *)

val info : string -> Nvsc_memtrace.Trace_codec.meta * string * int
(** Header/trailer-only peek: the trace's recording metadata, content
    digest (hex) and object count (global/heap and stack), without
    streaming any chunk. *)
