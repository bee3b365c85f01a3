(** Hybrid DRAM + NVRAM memory-system simulation.

    The paper's §V concedes: "we do not simulate a hybrid memory system
    due to the limitations of the simulator.  Instead, we assume main
    memory is completely replaced with NVRAM."  This module removes that
    limitation: two independent memory systems — a DRAM side and an NVRAM
    side, each with its own controller, banks and bus, as the horizontal
    design of §II implies — are driven by one trace, each access routed by
    a placement function.

    Average power is total energy over the joint makespan; the two sides
    proceed concurrently (the makespan is the later of the two), and
    background power is charged for whichever capacity each side is
    configured with. *)

type side = Dram_side | Nvram_side

type t

val create :
  ?org:Org.t ->
  ?scheme:Address_mapping.scheme ->
  ?window:int ->
  nvram:Nvsc_nvram.Technology.t ->
  placement:(int -> side) ->
  unit ->
  t
(** [placement addr] routes each accessed address.  Both sides share the
    organisation and controller settings; [org] defaults to half the paper
    organisation per side (8 ranks each), so the combined capacity matches
    the single-technology simulations. *)

val access : t -> Nvsc_memtrace.Access.t -> unit

val consume : t -> Nvsc_memtrace.Sink.Batch.t -> first:int -> n:int -> unit
(** Route a batch slice of trace records in order. *)

val sink : ?name:string -> t -> Nvsc_memtrace.Sink.t
(** A sink feeding this hybrid via {!consume}. *)

type stats = {
  dram : Controller.stats;
  nvram : Controller.stats;
  accesses : int;
  nvram_fraction : float;  (** share of accesses routed to NVRAM *)
  nvram_write_fraction : float;  (** share of writes routed to NVRAM *)
  elapsed_ns : float;  (** joint makespan *)
  total_energy_nj : float;
  avg_power_w : float;
  avg_latency_ns : float;  (** access-weighted over both sides *)
}

val stats : t -> stats

val compare_designs :
  ?org:Org.t ->
  ?scheme:Address_mapping.scheme ->
  ?window:int ->
  nvram:Nvsc_nvram.Technology.t ->
  placement:(int -> side) ->
  replay:(Nvsc_memtrace.Sink.t -> unit) ->
  unit ->
  (string * float * float) list * stats
(** The experiment the paper could not run: replay one trace through
    (a) all-DRAM, (b) all-NVRAM, and (c) the hybrid with the given
    placement, at equal total capacity.  Returns
    [(design, normalized power, avg latency ns)] with power normalised to
    the all-DRAM design, and the hybrid's own {!stats}. *)
