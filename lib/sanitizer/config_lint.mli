(** Static configuration lint: physical-consistency checks over the
    simulator parameter records, run before any simulation.

    Every finding has class {!Diagnostic.Config} and an owner naming the
    record and field ("Technology.PCRAM.write_latency_ns"), so a broken
    constant is pinpointed rather than absorbed into downstream metrics. *)

val technology : Nvsc_nvram.Technology.t -> Diagnostic.report
(** Latency/current/endurance sanity for one memory technology: positive
    terms, write no faster (and no cheaper) than read, category agreeing
    with the non-volatility flag, non-volatile implies no refresh. *)

val caches :
  l1d:Nvsc_cachesim.Cache_params.t ->
  l1i:Nvsc_cachesim.Cache_params.t ->
  l2:Nvsc_cachesim.Cache_params.t ->
  Diagnostic.report
(** Power-of-two geometry per level, one shared line size, L2 larger than
    L1D. *)

val org : Nvsc_dramsim.Org.t -> Diagnostic.report
(** Power-of-two ranks/banks/rows/cols/widths; a row holds >= 1 line. *)

val timing : name:string -> Nvsc_dramsim.Timing.t -> Diagnostic.report
(** Positive timing terms; refresh interval exceeds refresh cycle time. *)

val core : Nvsc_cpusim.Core_params.t -> Diagnostic.report
(** Monotone L1 < L2 hit latency, power-of-two pages, ROB/miss-buffer wide
    enough for the claimed issue width and MLP. *)

val app : (module Nvsc_apps.Workload.APP) -> Diagnostic.report
(** Lowercase non-empty name, non-negative paper footprint, non-empty
    descriptions. *)

val all :
  ?app:(module Nvsc_apps.Workload.APP) -> unit -> Diagnostic.report
(** Lint everything the repo ships: all technologies, the paper cache
    hierarchy, DRAM organisation, per-technology timing, the core model,
    the cross-layer latency hierarchy (memory slower than L2), and — when
    given — one application's workload config. *)
