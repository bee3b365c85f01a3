module Technology = Nvsc_nvram.Technology

let compare_technologies ?org ?scheme ?window ?row_policy ?scheduler ?pool
    ?(jobs = 1) ?(bank_shards = 1) ~techs ~replay () =
  if bank_shards < 1 then
    invalid_arg "Memory_system.compare_technologies: bank_shards must be >= 1";
  let simulate tech =
    Nvsc_obs.Span.with_ ~arg:tech.Technology.name "dramsim.simulate"
    @@ fun () ->
    let c =
      Controller.create ?org ?scheme ?window ?row_policy ?scheduler ~tech ()
    in
    let s = Controller.sink ~name:tech.Technology.name c in
    replay s;
    Nvsc_memtrace.Sink.flush s;
    (tech, Controller.stats c)
  in
  (* Each task owns a private controller and replays the (read-only,
     Bigarray-backed) trace into it, and the pool's map returns results
     in input order — so the output is the same at every width; at
     width 1 every technology runs on the caller. *)
  let techs = Array.of_list techs in
  Array.to_list
    (match pool with
    | Some pool -> Nvsc_team.Pool.map_in pool simulate techs
    | None -> Nvsc_team.Pool.map ~jobs simulate techs)

let normalized_power results =
  let base =
    match
      List.find_opt
        (fun ((tech : Technology.t), _) -> tech.tech = Technology.DDR3)
        results
    with
    | Some (_, s) -> s.Controller.avg_power_w
    | None -> invalid_arg "Memory_system.normalized_power: no DDR3 baseline"
  in
  List.map
    (fun (tech, (s : Controller.stats)) -> (tech, s.avg_power_w /. base))
    results
