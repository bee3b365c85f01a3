(** Synthetic access-stream generators.

    Controlled traffic for calibrating and testing the simulators without
    running an application: sequential sweeps, strided walks, hot-set
    mixtures and Zipf-popularity streams (the locality spectrum HPC traces
    inhabit, cf. the paper's reference \[13\] on low locality in real
    workloads).  All generators are deterministic in their seed.

    Generators are streaming emitters: a {!t} pushes references one at a
    time into a {!Sink.t} on demand, so a synthetic stream is never
    materialised as a list. *)

type t
(** A pull-stream of references. *)

val next : t -> Sink.t -> bool
(** Push at most one reference into the sink; [false] once exhausted. *)

val into : t -> Sink.t -> int
(** Drain the stream into the sink; returns the number of references
    pushed.  The sink is {e not} flushed — callers flush at their own
    boundary. *)

val sequential : ?start:int -> ?line_bytes:int -> n:int -> unit -> t
(** [n] line-sized reads at consecutive line addresses. *)

val strided :
  ?start:int -> ?line_bytes:int -> stride_lines:int -> n:int -> unit -> t
(** Reads separated by [stride_lines] lines. *)

val hot_cold :
  seed:int ->
  hot_fraction:float ->
  hot_lines:int ->
  cold_lines:int ->
  write_fraction:float ->
  n:int ->
  unit ->
  t
(** Each access: with probability [hot_fraction] a uniform line of the hot
    set, otherwise a uniform line of the cold set (placed after the hot
    set); with probability [write_fraction] it is a write. *)

val zipf :
  seed:int -> ?exponent:float -> lines:int -> write_fraction:float ->
  n:int -> unit -> t
(** Zipf-popularity line selection over [lines] (default exponent 1.0),
    approximated by inverse-CDF sampling over the harmonic weights. *)

val interleave : t list -> t
(** Round-robin interleave several streams (models concurrent array
    sweeps); streams of different lengths are drained as they run out. *)
