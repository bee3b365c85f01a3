(** Shared command-line vocabulary for the nvscav and experiments
    binaries.

    Both executables parse the same knobs (scale, iterations, sweep pool
    and cache settings, profiling).  Defining each argument once keeps
    the flag names, default values, documentation strings and error
    messages uniform, and cmdliner derives the [--help] pages from the
    same definitions. *)

val unknown : what:string -> known:string list -> string -> string
(** [unknown ~what ~known name] renders the uniform "unknown
    $(what) ..." error, listing the accepted names. *)

val positive_float :
  ?max:float -> what:string -> unit -> float Cmdliner.Arg.conv
(** Rejects zero, negative and non-finite values, and values above
    [max] when given, at parse time, so the mistake is a usage error
    (exit 2) instead of a crash downstream. *)

val min_int_conv :
  ?max:int -> what:string -> min:int -> unit -> int Cmdliner.Arg.conv
(** Rejects integers below [min], and above [max] when given, at parse
    time (e.g. [--jobs 0]). *)

val max_scale : float
(** The largest [--scale]: every application's data at it fits the
    address-space segments of [Nvsc_memtrace.Layout]. *)

val max_jobs : int
(** The largest [--jobs]: the OCaml runtime's limit on domains running
    at once. *)

val scale : float Cmdliner.Term.t
(** [--scale], in (0, {!max_scale}]. *)

val iterations : int Cmdliner.Term.t
val jobs : int option Cmdliner.Term.t
(** [--jobs], in [1, {!max_jobs}]. *)

val cache_dir : string option Cmdliner.Term.t
val cache_max : int option Cmdliner.Term.t
val apps : string list option Cmdliner.Term.t
val kinds : string list option Cmdliner.Term.t
val techs : string list option Cmdliner.Term.t
val overrides : string list Cmdliner.Term.t

(** What [--profile] asked for: nothing, a summary table on stderr, or
    the summary plus a Chrome-trace JSON file. *)
type profile = Profile_off | Profile_summary | Profile_trace of string

val profile : profile Cmdliner.Term.t
(** [--profile] (summary only) or [--profile=FILE] (summary + trace). *)

val profile_enabled : profile -> bool
val profile_trace_out : profile -> string option
