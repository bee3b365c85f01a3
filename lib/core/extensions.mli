(** Beyond the paper's tables and figures: the ablations and design
    alternatives the paper discusses but does not evaluate.

    - {!sampling_ablation} measures §III-D's rejection of sampled
      instrumentation ("sampling can lead to the loss of access
      information ... which in turn causes improper data placement");
    - {!hybrid_design} compares the two hybrid organisations of §II —
      horizontal DRAM+NVRAM vs hierarchical DRAM-cache-in-front-of-NVRAM —
      on real application traces;
    - {!placement_summary} applies the static and dynamic placement
      policies to an application profile (§VII-C's dynamic-placement
      discussion);
    - {!row_policy_ablation} quantifies the controller's open- vs
      closed-page policy on an application trace.

    Every application-driven study reads one traced run of the
    application, its {!profile}: studies on the same (application, scale,
    iterations) share it instead of re-running the application.  The
    studies that need a second pass ({!sampling_ablation},
    {!fine_grained_placement}, the multi-task ranks) make it at the
    profile's own scale and iteration count.  {!run_studies} runs all of
    one application's studies from its profile; the experiments pipeline
    does that in one sweep cell per application ([Nvsc_sweep.Cell.Study]),
    so the studies run on the sweep's worker domains and are cached with
    its other cells, and {!run_all} only prints. *)

val profile :
  scale:float ->
  iterations:int ->
  (module Nvsc_apps.Workload.APP) ->
  Scavenger.result
(** The traced NV-Scavenger run (main-memory trace retained) every study
    below takes.  The studies that need the trace ({!hybrid_design},
    {!hybrid_simulation}, {!power_sensitivity}) raise [Invalid_argument]
    on an untraced result; the others accept any run. *)

(** {1 Sampling ablation} *)

type sampling_ablation = {
  app_name : string;
  sampling_ratio : float;  (** fraction of references observed *)
  full_objects : int;  (** objects with traffic under full instrumentation *)
  lost_objects : int;  (** objects with traffic that sampling never saw *)
  misclassified_read_only : int;
      (** objects sampling calls read-only that are actually written — the
          exact "improper data placement" failure the paper warns of *)
  verdict_flips : int;
      (** objects whose category-2 suitability verdict changes *)
}

val sampling_ablation :
  ?period:int -> ?sample_length:int -> Scavenger.result -> sampling_ablation
(** Compare the fully instrumented profile against a sampled run of the
    same application ({!Nvsc_apps.Apps.find} by the profile's name, else
    [Invalid_argument]) at the profile's scale and iterations.  Defaults:
    period 10000, sample_length 100 (a 1 % sample in sparse windows, as a
    SimPoint-style phase sampler would take). *)

(** {1 Hybrid organisation comparison} *)

type hybrid_design = {
  app_name : string;
  trace_accesses : int;
  page_hit_rate : float;  (** DRAM page-cache hit rate *)
  hierarchical_avg_latency_ns : float;
  hierarchical_nvram_bytes : int;  (** traffic into NVRAM, incl. page fills *)
  horizontal_avg_latency_ns : float;
      (** traffic-weighted mean under the static horizontal placement *)
  horizontal_nvram_write_fraction : float;
  latency_advantage : float;
      (** hierarchical latency / horizontal latency: > 1 means the
          horizontal design the paper chose wins *)
}

val hybrid_design :
  ?tech:Nvsc_nvram.Technology.t -> Scavenger.result -> hybrid_design
(** Replays the profile's trace through a DRAM page cache of a quarter of
    the footprint and sets it against a static placement with the same
    DRAM budget.  [tech] defaults to PCRAM (the hierarchical design's
    usual backing). *)

(** One point of the locality sweep: at what locality does the DRAM page
    cache stop paying for its page fills? *)
type crossover_point = {
  hot_fraction : float;  (** fraction of accesses hitting a cache-sized hot set *)
  hit_rate : float;
  hierarchical_latency_ns : float;
  flat_nvram_latency_ns : float;  (** all accesses served by NVRAM directly *)
  dram_cache_wins : bool;
}

val dram_cache_crossover :
  ?tech:Nvsc_nvram.Technology.t ->
  ?accesses:int ->
  hot_fractions:float list ->
  unit ->
  crossover_point list
(** Synthetic traces with a controlled hot-set fraction, replayed through
    the page cache — quantifying the paper's §II claim that "for workloads
    with poor locality, the DRAM cache actually lowers performance".  The
    hierarchical design loses to even a flat all-NVRAM memory once page
    fills outweigh the hits. *)

(** {1 Placement policies on application profiles} *)

type placement_summary = {
  app_name : string;
  objects : int;
  static_nvram_fraction : float;  (** bytes placed in NVRAM statically *)
  static_slowdown_bound : float;
  dynamic_nvram_fraction : float;  (** after epoch-driven migration *)
  dynamic_slowdown_bound : float;
  migrations : int;
  migrated_bytes : int;
}

val placement_summary :
  ?tech:Nvsc_nvram.Technology.t -> Scavenger.result -> placement_summary
(** The {!Profile_placement} static plan, and the dynamic policy fed the
    profile's per-iteration counters.  [tech] defaults to STTRAM
    (category 2, the paper's most promising). *)

(** {1 Fine-grained dynamic placement} *)

type fine_grained = {
  app_name : string;
  window_refs : int;
  windows : int;  (** decision points the monitor produced *)
  migrations : int;
  avg_nvram_fraction : float;
      (** NVRAM byte-residency averaged over decision points *)
  final_nvram_fraction : float;
}

val fine_grained_placement :
  ?window_refs:int ->
  ?tech:Nvsc_nvram.Technology.t ->
  Scavenger.result ->
  fine_grained
(** §VII-C's proposal realised: re-run the profiled application (found
    as in {!sampling_ablation}, at the profile's scale and iterations)
    with a {!Fine_monitor} driving the dynamic policy *online*, at
    sub-iteration granularity ([window_refs] references per decision,
    default 100k).  The profile supplies the object population.
    Everything starts in NVRAM; the policy pulls write-bursting objects
    back to DRAM as each window closes.  [tech] defaults to STTRAM. *)

val pp_fine_grained : Format.formatter -> fine_grained -> unit

(** {1 Hybrid memory-system simulation} *)

type hybrid_simulation = {
  app_name : string;
  nvram_bytes_fraction : float;  (** of the footprint, statically placed *)
  nvram_access_fraction : float;  (** of main-memory accesses routed there *)
  nvram_write_fraction : float;
  designs : (string * float * float) list;
      (** (design, normalized power, avg latency ns) for all-DRAM,
          all-NVRAM and the hybrid *)
}

val hybrid_simulation :
  ?tech:Nvsc_nvram.Technology.t -> Scavenger.result -> hybrid_simulation
(** The simulation the paper's §V says it could not run ("we do not
    simulate a hybrid memory system due to the limitations of the
    simulator"): place the profile's objects statically across a DRAM
    half and an NVRAM half ({!Profile_placement.static_plan}), then replay
    its cache-filtered trace through {!Nvsc_dramsim.Hybrid_system} with
    accesses routed by object residence.  [tech] defaults to STTRAM. *)

val pp_hybrid_simulation : Format.formatter -> hybrid_simulation -> unit

(** {1 Table VI robustness} *)

val power_sensitivity :
  Scavenger.result -> (string * (Nvsc_nvram.Technology.t * float) list) list
(** Replay the Table VI experiment on the profile's trace under different
    controller configurations — FR-FCFS scheduling, line-interleaved
    address mapping, closed-page row policy — to check that the paper's
    headline (>= 27 % saving; PCRAM <= STTRAM <= MRAM) is not an artifact
    of one controller design.  Returns (configuration label, normalized
    power per technology) rows. *)

(** {1 Row-buffer policy ablation} *)

val row_policy_ablation :
  Nvsc_memtrace.Trace_log.t ->
  tech:Nvsc_nvram.Technology.t ->
  (Nvsc_dramsim.Controller.row_policy * Nvsc_dramsim.Controller.stats) list
(** The same trace under open-page and closed-page policies. *)

(** {1 Printing} *)

val pp_sampling : Format.formatter -> sampling_ablation -> unit
val pp_hybrid : Format.formatter -> hybrid_design -> unit
val pp_placement : Format.formatter -> placement_summary -> unit

val run_studies : Scavenger.result -> (string * string) list
(** Every study that applies to the profile's application, rendered:
    (section key, text) in report order.  Sampling ablation, hybrid
    organisation, placement policies, hybrid simulation and multi-task
    representativeness (4 ranks at the profile's scale and iterations)
    apply to every application; Table VI robustness and traffic
    attribution to cam only, fine-grained placement to nek5000 only and
    the row-buffer policy ablation to s3d only.  Needs a traced profile
    ({!profile}). *)

val run_all :
  Format.formatter ->
  texts:(string * (string * string) list) list ->
  Experiment.data ->
  unit
(** Print every extension section in report order: its header, then each
    application's text for it from [texts] ((application, {!run_studies})
    pairs, in application order).  Runs no application: the DRAM-cache
    crossover replays synthetic traces, and Figure 12's asymmetric
    variant reads the perf cells of [data], the run's evaluation data,
    whose one pass per application accounts both write models: its
    symmetric values are those of the Figure 12 table of the same run. *)
