module Technology = Nvsc_nvram.Technology

type point = {
  tech : Technology.t;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;
  report : Perf_model.report;
}

let is_ddr3 (t : Technology.t) = t.tech = Technology.DDR3

let run ?params ?(techs = Technology.paper_set) ?(asymmetric = false) ~replay
    () =
  if not (List.exists is_ddr3 techs) then
    invalid_arg "Sensitivity.run: DDR3 baseline required";
  let latency (tech : Technology.t) =
    if asymmetric then
      {
        Perf_model.mem_latency_ns = tech.read_latency_ns;
        mem_write_latency_ns = Some tech.write_latency_ns;
      }
    else
      { mem_latency_ns = tech.perf_sim_latency_ns; mem_write_latency_ns = None }
  in
  let reports =
    let names = List.map (fun (t : Technology.t) -> t.name) techs in
    Nvsc_obs.Span.with_ ~arg:(String.concat "," names) "cpusim.sensitivity"
    @@ fun () ->
    let model = Perf_model.create_ledgers ?params (List.map latency techs) in
    replay model;
    Perf_model.reports model
  in
  let raw = List.combine techs reports in
  let base =
    (snd (List.find (fun (t, _) -> is_ddr3 t) raw)).Perf_model.runtime_ns
  in
  List.map
    (fun ((tech : Technology.t), (r : Perf_model.report)) ->
      {
        tech;
        latency_ns = tech.perf_sim_latency_ns;
        runtime_ns = r.runtime_ns;
        normalized_runtime = r.runtime_ns /. base;
        report = r;
      })
    raw

let pp_points fmt points =
  List.iter
    (fun p ->
      Format.fprintf fmt "%-8s %6.0fns  runtime %a  normalized %.3f@."
        p.tech.Technology.name p.latency_ns Nvsc_util.Units.pp_ns p.runtime_ns
        p.normalized_runtime)
    points
