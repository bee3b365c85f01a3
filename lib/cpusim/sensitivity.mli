(** The Figure-12 experiment: replay one application workload against the
    memory latencies of the candidate technologies and report runtimes
    normalised to DRAM.

    Per the paper's §V assumptions, a single latency is used for both reads
    and writes (each technology's write latency — a performance lower
    bound) and main memory is wholly replaced by the technology under
    test.  The same pass also removes that assumption: each point carries
    a second runtime with reads at the technology's read latency and
    writes posted at its write latency through the write buffer (see
    {!Perf_model.create}), quantifying how conservative the paper's lower
    bound is. *)

type point = {
  tech : Nvsc_nvram.Technology.t;
  latency_ns : float;  (** the paper's simulated latency (Table IV) *)
  runtime_ns : float;
  normalized_runtime : float;  (** relative to the DDR3 run *)
  report : Perf_model.report;
  posted_runtime_ns : float;  (** with posted writes *)
  posted_normalized_runtime : float;
      (** relative to the DDR3 run with posted writes *)
}

val run :
  ?params:Core_params.t ->
  ?techs:Nvsc_nvram.Technology.t list ->
  replay:(Perf_model.t -> unit) ->
  unit ->
  point list
(** [replay model] is called exactly once: it drives the application's
    instruction/reference stream into [model] ({!Perf_model.instructions} /
    {!Perf_model.access_raw}), which accounts every technology under both
    write models at once, one ledger each (see
    {!Perf_model.create_ledgers}).  [techs] defaults to the paper's four
    technologies; the list must include DDR3 for normalisation, which is
    checked before [replay] runs.  The pass is one [cpusim.sensitivity]
    span whose argument lists the technologies. *)
