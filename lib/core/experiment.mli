(** The paper's evaluation: its configuration, the structured data every
    table and figure is drawn from, and the printers that draw them.

    The data is produced by the sweep engine
    ({!Nvsc_sweep.Engine.experiments_data}): one objects, power and perf
    cell per application, possibly decoded from a cache.  {!run_all_of_data}
    prints every table and figure from it, and {!Claims} checks the
    paper's findings against it.  Figure 12 replays one main-loop
    iteration into the performance model ({!perf_replay}), one pass for
    every memory technology under both write models. *)

type config = {
  scale : float;  (** data-size multiplier for the scavenger runs *)
  iterations : int;  (** main-loop iterations (paper: 10) *)
  perf_scale : float;  (** scale for the figure-12 runs *)
}

val default_config : config
(** scale 1.0, 10 iterations, perf_scale 0.5 (the figure-12 runs simulate
    one iteration of a reduced problem, as the paper's §VII-E does). *)

val quick_config : config
(** Reduced sizes for fast test runs. *)

val perf_feed :
  Nvsc_cpusim.Perf_model.t ->
  (on_phase:(Nvsc_memtrace.Mem_object.phase -> unit) ->
  on_instr:(int -> unit) ->
  on_refs:Nvsc_memtrace.Trace_codec.on_refs ->
  'a) ->
  'a
(** Figure 12's feed: [perf_feed model subscribe] hands [subscribe] the
    callbacks that pass a reference stream's main-loop references and
    instruction counts to [model].  The labels are those of
    {!Nvsc_appkit.Ctx.observe} and {!Nvsc_memtrace.Trace_codec.stream},
    so a live run ({!perf_replay}) and a trace
    ({!Trace_run.perf_replay}) feed the model through the same
    callbacks. *)

val perf_replay :
  ?scale:float ->
  (module Nvsc_apps.Workload.APP) ->
  Nvsc_cpusim.Perf_model.t ->
  unit
(** Drive one main-loop iteration of the application into a performance
    model through {!perf_feed} — the replay closure behind figure 12. *)

(** {1 Data forms} *)

type table1_row = {
  app_name : string;
  input_description : string;
  description : string;
  footprint_bytes : int;
  paper_footprint_mb : float;
}

type fig12_cell = {
  tech : Nvsc_nvram.Technology.t;
  latency_ns : float;
  normalized_runtime : float;  (** the paper's read = write latencies *)
  posted_normalized_runtime : float;  (** with posted writes *)
}

(** Everything the evaluation report needs, per app, in presentation
    order. *)
type data = {
  data_config : config;
  rows : table1_row list;
  summaries : Stack_analysis.summary list;
  cam_distribution : Stack_analysis.distribution option;
  reports : Object_analysis.report list;
  cdfs : (string * Usage_variance.cdf_point list) list;
      (** figure 7; the paper omits GTC *)
  untouched : (string * float) list;
  variances : (string * Usage_variance.variance) list;
  powers : (string * (Nvsc_nvram.Technology.t * float) list) list;
      (** Table VI: per app, normalised average power per technology *)
  perf : (string * fig12_cell list) list;
}

(** {1 Printing forms} *)

val pp_table1_rows : Format.formatter -> table1_row list -> unit
val table2 : Format.formatter -> unit -> unit
val table3 : Format.formatter -> unit -> unit
val table4 : Format.formatter -> unit -> unit

val pp_fig7_data :
  Format.formatter -> (string * Usage_variance.cdf_point list) list -> unit

val pp_fig8_11_data :
  Format.formatter -> (string * Usage_variance.variance) list -> unit

val pp_table6_data :
  Format.formatter ->
  (string * (Nvsc_nvram.Technology.t * float) list) list ->
  unit

val pp_fig12_data :
  Format.formatter -> (string * fig12_cell list) list -> unit

val run_all_of_data : Format.formatter -> data -> unit
(** Print every table and figure, in the paper's order. *)
