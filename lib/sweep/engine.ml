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

let miss_groups looked_up =
  Array.to_list looked_up
  |> List.mapi (fun i (spec, found) -> (i, spec, found))
  |> List.filter_map (fun (i, spec, found) ->
         match found with None -> Some (i, spec) | Some _ -> None)
  |> Cell.group

(* One pass per group.  A lone group gets the whole width for its
   technology comparison; several groups spread across the width and
   compare serially, so pools never nest. *)
let execute_misses ~jobs ?trace looked_up =
  let execute ?jobs group =
    List.combine (List.map fst group)
      (Cell.execute_group ?jobs ?trace (List.map snd group))
  in
  match miss_groups looked_up with
  | [ group ] -> execute ~jobs group
  | groups ->
    List.concat
      (Array.to_list
         (Nvsc_team.Pool.map ~jobs (fun g -> execute g) (Array.of_list groups)))

let run_specs ?jobs ?cache ?trace specs =
  Nvsc_obs.Span.with_ "sweep.run" @@ fun () ->
  let jobs =
    match jobs with Some j -> j | None -> Nvsc_team.Pool.default_jobs ()
  in
  (* Serial cache pass on the calling domain: the cache never sees
     concurrent access, and hit/miss order is deterministic. *)
  let looked_up =
    Array.map
      (fun spec ->
        match cache with
        | None -> (spec, None)
        | Some c -> (spec, Cache.find c spec))
      specs
  in
  let computed = execute_misses ~jobs ?trace looked_up in
  let outcomes =
    Array.mapi
      (fun i (spec, found) ->
        match found with
        | Some payload -> { spec; payload; cached = true }
        | None -> { spec; payload = List.assoc i computed; cached = false })
      looked_up
  in
  (match cache with
  | None -> ()
  | Some c ->
    Array.iter
      (fun o -> if not o.cached then Cache.store c o.spec o.payload)
      outcomes);
  let cache_stats =
    match cache with
    | None -> { Cache.hits = 0; misses = 0; evictions = 0 }
    | Some c -> Cache.stats c
  in
  ( outcomes,
    {
      cells = Array.length specs;
      hits = cache_stats.hits;
      misses = cache_stats.misses;
      evictions = cache_stats.evictions;
      jobs = max 1 (min jobs (max 1 (Array.length specs)));
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
