(** Typed metrics registry: counters, gauges and integer distributions
    under one global, domain-safe namespace.

    The registry absorbs the pipeline's scattered self-observability
    counters (reference-stream transport totals, sweep-cache hit/miss/evict
    tallies, sanitizer finding counts) into one snapshot that is rendered
    once, after a run — never interleaved from worker domains.

    Every mutation is a single [Atomic] operation, so metrics may be
    updated from any domain without locks, and every snapshot value is
    deterministic in the *set* of updates, not their interleaving:
    counters and distribution sums are integer additions (associative and
    commutative), distribution min/max are idempotent joins.  Only wall
    -clock-valued metrics (names ending in [_ns]) vary between runs; the
    determinism test filters on that suffix.

    Metric names are dot-separated lowercase paths ([sweep.cache.hits]).
    Registering the same name twice returns the existing metric;
    re-registering it as a different type raises [Invalid_argument]. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val get : t -> float
end

(** Integer-valued distribution: count, sum, min and max.  Values are
    integers (byte counts, nanoseconds, batch sizes) so that sums stay
    associative across domains. *)
module Dist : sig
  type t

  val observe : t -> int -> unit
end

val counter : string -> Counter.t
val gauge : string -> Gauge.t
val dist : string -> Dist.t

type dist_snapshot = { count : int; sum : int; min : int; max : int }
type value = Counter of int | Gauge of float | Dist of dist_snapshot

val snapshot : unit -> (string * value) list
(** Every registered metric, sorted by name.  Metrics that were never
    updated since the last {!reset} are included (zero counters, [0.]
    gauges, empty distributions) — a snapshot always has the same keys for
    the same code paths. *)

val get : string -> value option
(** The current value of one metric, if registered. *)

val reset : unit -> unit
(** Zero every metric (registrations survive). *)

val value_to_json : value -> Nvsc_util.Json.t

val snapshot_json : ?strip_time:bool -> unit -> Nvsc_util.Json.t
(** The registry snapshot as one JSON object, keys in sorted (hence
    deterministic) order — the payload of [nvscav client stats] and the
    [nvscMetrics] sidecar of the Chrome-trace export.  With
    [~strip_time:true], metrics whose names end in [_ns] (wall-clock
    values, the only ones that vary between byte-identical runs) are
    omitted, so CI can [cmp] two snapshots of the same workload. *)

val touched : (string * value) list -> (string * value) list
(** The entries of a snapshot the run touched: non-zero counters and
    gauges, distributions with at least one observation.  [--profile]
    prints these; {!snapshot} and {!snapshot_json} keep every key. *)

val pp_snapshot : Format.formatter -> (string * value) list -> unit
(** One aligned [metric value] line per entry. *)
