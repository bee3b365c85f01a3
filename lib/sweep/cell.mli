(** One cell of an experiment matrix: an (application × analysis kind ×
    configuration) point, its execution, and its serialized form.

    A cell is the sweep engine's unit of caching: it returns a plain-data
    payload and owns a content digest that keys the on-disk result cache.
    Its unit of scheduling is a {e group}: the cells that can be derived
    from one {!Nvsc_core.Scavenger} pass over the same application run
    (see {!group}).  Groups share no state, so they may execute on any
    worker domain in any order.  Payload codecs round-trip exactly: a
    decoded payload renders byte-identically to a fresh one. *)

module Json = Nvsc_util.Json

type kind =
  | Objects  (** per-object metrics, stack summary, usage variance *)
  | Power  (** cache-filtered trace replayed through the power simulator *)
  | Perf  (** figure-12 latency-sensitivity replay *)
  | Place  (** static hybrid DRAM/NVRAM placement plan *)
  | Study
      (** the application's extension studies
          ({!Nvsc_core.Extensions.run_studies}) from its traced profile *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val all_kinds : kind list
(** The kinds of [nvscav sweep]'s matrix and of the serve protocol; not
    [Study], which only the experiments pipeline adds
    ({!Engine.with_studies}). *)

type spec = {
  app : string;
  kind : kind;
  scale : float;
  iterations : int;
  tech : Nvsc_nvram.Technology.tech option;
      (** NVRAM technology of a [Place] cell's hybrid; [None] elsewhere *)
  trace_digest : string option;
      (** content digest of the NVT trace this cell replays instead of
          re-running the application; [None] for a live cell.  Folded into
          {!digest}, so trace-fed and live results never share a cache
          entry and different trace contents never collide. *)
}

val pin_trace : digest:string -> iterations:int -> spec -> spec
(** The cell fed by a trace of [iterations] main-loop iterations with
    content digest [digest].  A live perf cell replays one iteration
    (its spec says 1), a trace-fed one every iteration the trace holds,
    so a perf cell takes the trace's count. *)

val spec_to_json : spec -> Json.t
val spec_of_json : Json.t -> spec

val code_version : string
(** Salt folded into every digest; bump when the payload schema or the
    simulation semantics change so stale cache entries stop matching. *)

val digest : spec -> string
(** Hex content digest of [code_version] plus every spec field — the
    cache key.  Any field change changes the digest. *)

(** {1 Payloads} *)

type app_info = {
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  footprint_bytes : int;
  total_main_refs : int;
}

type objects_payload = {
  info : app_info;
  summary : Nvsc_core.Stack_analysis.summary;
  distribution : Nvsc_core.Stack_analysis.distribution;
  report : Nvsc_core.Object_analysis.report;
  cdf : Nvsc_core.Usage_variance.cdf_point list;
  variance : Nvsc_core.Usage_variance.variance;
  untouched_fraction : float;
}

type power_row = {
  tech_name : string;
  avg_power_w : float;
  elapsed_ns : float;
  row_hit_rate : float;
  bandwidth_gbs : float;
  normalized : float;
}

type power_payload = {
  p_info : app_info;
  trace_length : int;
  trace_reads : int;
  trace_writes : int;
  l1_miss_rate : float;
  l2_miss_rate : float;
  power_rows : power_row list;
}

type perf_row = {
  perf_tech_name : string;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;  (** the paper's read = write latencies *)
  posted_runtime_ns : float;  (** with posted writes *)
  posted_normalized_runtime : float;
}

type place_payload = {
  place_tech_name : string;
  place_footprint_bytes : int;
  nvram_items : Nvsc_placement.Item.t list;
  assessment : Nvsc_placement.Hybrid_memory.assessment;
}

type payload =
  | Objects_result of objects_payload
  | Power_result of power_payload
  | Perf_result of perf_row list
  | Place_result of place_payload
  | Study_result of (string * string) list
      (** rendered study text per section key, in report order: these
          sections are only ever printed *)

val payload_to_json : payload -> Json.t
val payload_of_json : Json.t -> payload
(** Raises {!Nvsc_util.Json.Parse_error} on a foreign or stale shape. *)

val group : (int * spec) list -> (int * spec) list list
(** Partition indexed cells into execution groups, in order of first
    appearance, members in input order.  Cells share a group when they
    have the same application, scale, iterations and trace digest and
    none is [Perf]: one run of that configuration yields all their
    payloads ([Study] cells make their own further runs, see
    {!Nvsc_core.Extensions.run_studies}).  Every [Perf] cell is a group
    of its own, because figure 12 drives the application through the
    performance model (one pass for every technology), not through a
    [Scavenger.run]. *)

val execute_group : ?jobs:int -> ?trace:string -> spec list -> payload list
(** Run one group (as formed by {!group}) and return its payloads in
    input order.  A live group makes one {!Nvsc_core.Scavenger.run},
    with the main-memory trace filtered only if the group holds a
    [Power] or [Study] cell; a trace-fed group makes one
    {!Nvsc_core.Trace_run.replay}.  Each payload is projected from that
    one result and is equal to what {!execute} returns for the cell
    alone.  [jobs] (default 1) is handed to the power cells' technology
    comparison.  Re-entrant and domain-safe: builds a fresh context,
    touches no global mutable state.

    Raises [Invalid_argument] if the cells do not share one pass, on an
    unknown application name, and on a trace mismatch: with [trace] (a
    path to an [.nvt] file, see {!Nvsc_memtrace.Trace_codec}) the cells
    stream the recorded reference stream instead of re-running the
    application, and a pinned [trace_digest] must match the file's; a
    spec that pins a digest cannot execute without a trace. *)

val execute : ?trace:string -> spec -> payload
(** [execute_group] of the one cell. *)

val render : Format.formatter -> spec -> payload -> unit
(** The cell's section of the aggregated sweep report (header line plus
    the same tables the corresponding [nvscav] subcommand prints). *)

(** {1 Report sections}

    {!render}'s constituents, exposed individually so a request plan
    ([Nvsc_serve.Plan]) can compose exactly the sections each [nvscav]
    report holds ([analyze] = summary + usage; [run] = summary, trace
    line, normalized power, assessment; [power]/[perf]/[place] likewise)
    from payloads, fresh or decoded; the local subcommands and the serve
    daemon render through the same plans.  Each section starts at column 0 and ends with a newline,
    so concatenated sections are byte-identical to one continuous
    render. *)

val pp_header : Format.formatter -> spec -> unit
val pp_objects_summary : Format.formatter -> objects_payload -> unit
val pp_objects_usage : Format.formatter -> objects_payload -> unit
val pp_power_trace_line : Format.formatter -> power_payload -> unit
val pp_power_stats : Format.formatter -> power_payload -> unit
val pp_power_normalized : Format.formatter -> power_payload -> unit

val pp_perf_points : ?posted:bool -> Format.formatter -> perf_row list -> unit
(** Figure 12's rows with the paper's one simulated latency per
    technology, or ([posted]) with posted writes, labelled with the read
    and write latencies the technology ran at (e.g. [20/100ns]). *)

val pp_place_items : Format.formatter -> place_payload -> unit
val pp_place_assessment : Format.formatter -> place_payload -> unit

val pp_power_of_trace : Format.formatter -> Nvsc_memtrace.Trace_log.t -> unit
(** The [power] report (trace line, per-technology statistics,
    normalized power) for a main-memory trace that comes with no run,
    such as a DRAMSim2 text trace. *)
