module Experiment = Nvsc_core.Experiment
module Technology = Nvsc_nvram.Technology

type outcome = { spec : Cell.spec; payload : Cell.payload; cached : bool }

type stats = {
  cells : int;
  hits : int;
  misses : int;
  evictions : int;
  jobs : int;
}

exception Cancelled

(* Await every miss in report order, storing each computed payload and
   handing each outcome on once it and all earlier ones are ready.  After
   a failure nothing more is handed on, but later groups are still
   awaited and stored: work already paid for warms the cache. *)
let collect ?cache ~on_outcome specs found tickets =
  let failure = ref None in
  let outcome i spec =
    match (found.(i), tickets.(i)) with
    | Some payload, _ -> Ok { spec; payload; cached = true }
    | None, Some (ticket, k) -> (
      match Nvsc_team.Pool.await ticket with
      | Nvsc_team.Pool.Done payloads ->
        let payload = List.nth payloads k in
        Option.iter (fun c -> Cache.store c spec payload) cache;
        Ok { spec; payload; cached = false }
      | Failed e -> Error e
      | Cancelled -> Error Cancelled)
    | None, None -> assert false
  in
  let outcomes =
    Array.mapi
      (fun i spec ->
        match (outcome i spec, !failure) with
        | Ok o, None ->
          on_outcome i o;
          Some o
        | Error e, None ->
          failure := Some e;
          None
        | _, Some _ -> None)
      specs
  in
  match !failure with
  | Some e -> raise e
  | None -> Array.map Option.get outcomes

let run_specs ?jobs ?pool ?(cancelled = fun () -> false) ?cache ?trace
    ?(on_outcome = fun _ _ -> ()) specs =
  Nvsc_obs.Span.with_ "sweep.run" @@ fun () ->
  let jobs =
    match (pool, jobs) with
    | Some p, _ -> Nvsc_team.Pool.jobs p
    | None, Some j -> j
    | None, None -> Nvsc_team.Pool.default_jobs ()
  in
  let n = Array.length specs in
  let evicted_before =
    match cache with Some c -> (Cache.stats c).evictions | None -> 0
  in
  (* Serial lookup on the calling thread: hit/miss order is
     deterministic. *)
  let found =
    Array.map (fun spec -> Option.bind cache (fun c -> Cache.find c spec)) specs
  in
  let groups =
    Cell.group
      (List.filter (fun (i, _) -> Option.is_none found.(i))
         (List.mapi (fun i spec -> (i, spec)) (Array.to_list specs)))
  in
  (* One task per group, one application pass each. *)
  let run_groups ~width pool =
    let tickets = Array.make n None in
    List.iter
      (fun group ->
        let ticket =
          Nvsc_team.Pool.submit ~cancelled pool (fun () ->
              Cell.execute_group ~jobs:width ?trace (List.map snd group))
        in
        List.iteri (fun k (i, _) -> tickets.(i) <- Some (ticket, k)) group)
      groups;
    collect ?cache ~on_outcome specs found tickets
  in
  (* the domains the misses run on: at most one per group *)
  let domains = max 1 (min jobs (List.length groups)) in
  let outcomes, domains =
    match (pool, groups) with
    (* the daemon's resident pool: groups compare technologies serially,
       so pools never nest *)
    | Some pool, _ -> (run_groups ~width:1 pool, domains)
    (* a lone group runs on the caller with the whole width for its
       technology comparison, which only a power cell makes, over at most
       one domain per technology *)
    | None, [ group ] ->
      ( Nvsc_team.Pool.with_pool ~jobs:1 (run_groups ~width:jobs),
        if List.exists (fun (_, s) -> s.Cell.kind = Cell.Power) group then
          min jobs (List.length Technology.paper_set)
        else 1 )
    | None, _ ->
      (Nvsc_team.Pool.with_pool ~jobs:domains (run_groups ~width:1), domains)
  in
  let hits =
    Array.fold_left (fun acc o -> if o.cached then acc + 1 else acc) 0 outcomes
  in
  ( outcomes,
    {
      cells = n;
      hits;
      misses = (if cache = None then 0 else n - hits);
      evictions =
        (match cache with
        | Some c -> (Cache.stats c).evictions - evicted_before
        | None -> 0);
      jobs = domains;
    } )

let run ?jobs ?cache ?trace matrix =
  let specs = Array.of_list (Matrix.cells matrix) in
  (* Trace-fed sweep: read the trace digest once and stamp it into every
     spec, so the cache keys on the trace *content* — re-analyzing the
     same recorded trace hits, a re-recorded (different) trace misses. *)
  let specs =
    match trace with
    | None -> specs
    | Some path ->
      let meta, digest = Nvsc_core.Trace_run.info path in
      Array.map
        (Cell.pin_trace ~digest
           ~iterations:meta.Nvsc_memtrace.Trace_codec.iterations)
        specs
  in
  run_specs ?jobs ?cache ?trace specs

let pp_stats fmt s =
  Format.fprintf fmt "sweep: cells=%d hits=%d misses=%d evictions=%d jobs=%d"
    s.cells s.hits s.misses s.evictions s.jobs

let pp_outcomes fmt outcomes =
  Array.iter (fun o -> Cell.render fmt o.spec o.payload) outcomes

(* --- the experiments pipeline ------------------------------------------- *)

let experiments_matrix ~(config : Experiment.config) =
  let overrides =
    [
      {
        Matrix.o_app = None;
        o_kind = Some Cell.Perf;
        o_scale = Some config.perf_scale;
        o_iterations = None;
      };
    ]
  in
  match
    Matrix.make
      ~apps:Nvsc_apps.Apps.names
      ~kinds:[ Cell.Objects; Cell.Power; Cell.Perf ]
      ~scale:config.scale ~iterations:config.iterations ~overrides ()
  with
  | Ok m -> m
  | Error e -> invalid_arg ("Engine.experiments_matrix: " ^ e)

let with_studies ~scale ~iterations (m : Matrix.t) =
  {
    m with
    kinds = m.kinds @ [ Cell.Study ];
    overrides =
      m.overrides
      @ [
          {
            Matrix.o_app = None;
            o_kind = Some Cell.Study;
            o_scale = Some scale;
            o_iterations = Some iterations;
          };
        ];
  }

let experiments_texts outcomes =
  Array.to_list outcomes
  |> List.filter_map (fun o ->
         match o.payload with
         | Cell.Study_result texts -> Some (o.spec.Cell.app, texts)
         | _ -> None)

let tech_of_name name =
  match Technology.of_string name with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Engine.experiments_data: unknown technology %S" name)

let experiments_data ~(config : Experiment.config) outcomes =
  let objects =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           match o.payload with
           | Cell.Objects_result p -> Some (o.spec.Cell.app, p)
           | _ -> None)
  in
  let powers =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           match o.payload with
           | Cell.Power_result p -> Some (o.spec.Cell.app, p)
           | _ -> None)
  in
  let perfs =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           match o.payload with
           | Cell.Perf_result rows -> Some (o.spec.Cell.app, rows)
           | _ -> None)
  in
  if objects = [] || powers = [] || perfs = [] then
    invalid_arg
      "Engine.experiments_data: outcomes lack objects, power or perf cells";
  {
    Experiment.data_config = config;
    rows =
      List.map
        (fun (app, (p : Cell.objects_payload)) ->
          {
            Experiment.app_name = app;
            input_description = p.info.Cell.input_description;
            description = p.info.Cell.description;
            footprint_bytes = p.info.Cell.footprint_bytes;
            paper_footprint_mb = p.info.Cell.paper_footprint_mb;
          })
        objects;
    summaries = List.map (fun (_, (p : Cell.objects_payload)) -> p.summary) objects;
    cam_distribution =
      List.assoc_opt "cam" objects
      |> Option.map (fun (p : Cell.objects_payload) -> p.distribution);
    reports = List.map (fun (_, (p : Cell.objects_payload)) -> p.report) objects;
    cdfs =
      List.filter_map
        (fun (app, (p : Cell.objects_payload)) ->
          (* the paper omits GTC from figure 7; see Experiment.fig7_data *)
          if app = "gtc" then None else Some (app, p.cdf))
        objects;
    untouched =
      List.map
        (fun (app, (p : Cell.objects_payload)) -> (app, p.untouched_fraction))
        objects;
    variances =
      List.map (fun (app, (p : Cell.objects_payload)) -> (app, p.variance)) objects;
    powers =
      List.map
        (fun (app, (p : Cell.power_payload)) ->
          ( app,
            List.map
              (fun (r : Cell.power_row) ->
                (tech_of_name r.tech_name, r.normalized))
              p.power_rows ))
        powers;
    perf =
      List.map
        (fun (app, rows) ->
          ( app,
            List.map
              (fun (r : Cell.perf_row) ->
                {
                  Experiment.tech = tech_of_name r.perf_tech_name;
                  latency_ns = r.latency_ns;
                  normalized_runtime = r.normalized_runtime;
                  posted_normalized_runtime = r.posted_normalized_runtime;
                })
              rows ))
        perfs;
    pipelines =
      (* pipeline counters come from the traced power cells, whose runs
         carry the cache filter's sink, not the untraced objects cells *)
      List.map (fun (app, (p : Cell.power_payload)) -> (app, p.p_pipeline)) powers;
  }
