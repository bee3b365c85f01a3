(** Memory-system front end (the DRAMSim2 "memory system" module): replays
    a main-memory trace — produced by the cache hierarchy — into one
    {!Controller} per memory technology and reports simulated power. *)

val compare_technologies :
  ?org:Org.t ->
  ?scheme:Address_mapping.scheme ->
  ?window:int ->
  ?row_policy:Controller.row_policy ->
  ?scheduler:Controller.scheduler ->
  ?pool:Nvsc_team.Pool.t ->
  ?jobs:int ->
  ?bank_shards:int ->
  techs:Nvsc_nvram.Technology.t list ->
  replay:(Nvsc_memtrace.Sink.t -> unit) ->
  unit ->
  (Nvsc_nvram.Technology.t * Controller.stats) list
(** Replay the same trace into a fresh controller per technology —
    the Table VI experiment.  [replay sink] must drive [sink] with the
    identical access sequence on every call (batched delivery via
    {!Nvsc_memtrace.Trace_log.replay_batch}, or per-access pushes); the
    sink is flushed after each replay.  [jobs > 1] simulates the
    technologies on a domain pool (each worker owns a private controller;
    [replay] must then be safe to run concurrently against distinct
    sinks, which trace-log batch replay is); results keep input order and
    are byte-identical to the serial path.  Given a [pool], the
    technologies run as its tasks instead, at its width, and [jobs] is
    ignored.

    [bank_shards] has no effect: it is checked (≥ 1, else
    [Invalid_argument]) and otherwise ignored.  It remains only for the
    nvbench ledger's [dramsim.compare_s.team2] row and goes away with
    that row in the next benchmark change. *)

val normalized_power :
  (Nvsc_nvram.Technology.t * Controller.stats) list ->
  (Nvsc_nvram.Technology.t * float) list
(** Average power of each entry normalised by the DDR3 entry (which must be
    present). *)
