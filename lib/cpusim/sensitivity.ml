module Technology = Nvsc_nvram.Technology

type point = {
  tech : Technology.t;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;
  report : Perf_model.report;
  posted_runtime_ns : float;
  posted_normalized_runtime : float;
}

let is_ddr3 (t : Technology.t) = t.tech = Technology.DDR3

let run ?params ?(techs = Technology.paper_set) ~replay () =
  let ddr3 =
    match List.find_index is_ddr3 techs with
    | Some i -> i
    | None -> invalid_arg "Sensitivity.run: DDR3 baseline required"
  in
  let paper (tech : Technology.t) =
    {
      Perf_model.mem_latency_ns = tech.perf_sim_latency_ns;
      mem_write_latency_ns = None;
    }
  and posted (tech : Technology.t) =
    {
      Perf_model.mem_latency_ns = tech.read_latency_ns;
      mem_write_latency_ns = Some tech.write_latency_ns;
    }
  in
  let reports =
    let names = List.map (fun (t : Technology.t) -> t.name) techs in
    Nvsc_obs.Span.with_ ~arg:(String.concat "," names) "cpusim.sensitivity"
    @@ fun () ->
    let model =
      Perf_model.create_ledgers ?params
        (List.map paper techs @ List.map posted techs)
    in
    replay model;
    Array.of_list (Perf_model.reports model)
  in
  (* ledger [i] is [techs]'s [i]th technology; [n + i] its posted run *)
  let n = List.length techs in
  let runtime i = reports.(i).Perf_model.runtime_ns in
  List.mapi
    (fun i (tech : Technology.t) ->
      {
        tech;
        latency_ns = tech.perf_sim_latency_ns;
        runtime_ns = runtime i;
        normalized_runtime = runtime i /. runtime ddr3;
        report = reports.(i);
        posted_runtime_ns = runtime (n + i);
        posted_normalized_runtime = runtime (n + i) /. runtime (n + ddr3);
      })
    techs
