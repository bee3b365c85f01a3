module Table = Nvsc_util.Table
module Technology = Nvsc_nvram.Technology

let paper_table5 =
  [
    ("nek5000", (6.33, 0.756));
    ("cam", (20.39, 0.763));
    ("gtc", (3.48, 0.443));
    ("s3d", (6.04, 0.631));
  ]

let paper_table6 =
  [
    ("nek5000", [ 0.688; 0.706; 0.711 ]);
    ("cam", [ 0.686; 0.699; 0.701 ]);
    ("gtc", [ 0.687; 0.708; 0.718 ]);
    ("s3d", [ 0.686; 0.711; 0.730 ]);
  ]

let section buf title = Buffer.add_string buf (Printf.sprintf "## %s\n\n" title)

let add_table buf t =
  Buffer.add_string buf (Table.to_markdown t);
  Buffer.add_char buf '\n'

let markdown_of_data (data : Experiment.data) =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "# NV-Scavenger evaluation report\n\n";
  Buffer.add_string buf
    (Printf.sprintf
       "Configuration: scale %g, %d main-loop iterations, figure-12 scale \
        %g.\n\n"
       data.data_config.Experiment.scale
       data.data_config.Experiment.iterations
       data.data_config.Experiment.perf_scale);

  section buf "Table I — application characteristics";
  let t =
    Table.create
      [
        ("Application", Table.Left);
        ("Description", Table.Left);
        ("Footprint (scaled)", Table.Right);
        ("Paper footprint", Table.Right);
      ]
  in
  List.iter
    (fun (r : Experiment.table1_row) ->
      Table.add_row t
        [
          r.app_name;
          r.description;
          Table.cell_bytes r.footprint_bytes;
          Printf.sprintf "%.0fMB" r.paper_footprint_mb;
        ])
    data.rows;
  add_table buf t;

  section buf "Table V — stack data analysis (paper value in brackets)";
  let t =
    Table.create
      [
        ("Application", Table.Left);
        ("R/W ratio", Table.Right);
        ("First iteration", Table.Right);
        ("Stack reference %", Table.Right);
      ]
  in
  List.iter
    (fun (s : Stack_analysis.summary) ->
      let paper_ratio, paper_pct =
        match List.assoc_opt s.app_name paper_table5 with
        | Some v -> v
        | None -> (Float.nan, Float.nan)
      in
      Table.add_row t
        [
          s.app_name;
          Printf.sprintf "%.2f [%.2f]" s.steady_ratio paper_ratio;
          Table.cell_f s.first_iter_ratio;
          Printf.sprintf "%s [%.1f%%]"
            (Table.cell_pct s.reference_pct)
            (100. *. paper_pct);
        ])
    data.summaries;
  add_table buf t;

  section buf "Figures 3–6 — object aggregates";
  let t =
    Table.create
      [
        ("Application", Table.Left);
        ("Objects", Table.Right);
        ("Read-only", Table.Right);
        ("Ratio > 50 (written)", Table.Right);
        ("Ratio > 1", Table.Right);
        ("NVRAM-suitable (cat. 2)", Table.Right);
      ]
  in
  List.iter
    (fun (r : Object_analysis.report) ->
      Table.add_row t
        [
          r.app_name;
          Table.cell_i (List.length r.rows);
          Table.cell_pct r.read_only_fraction;
          Table.cell_bytes r.ratio_gt_50_bytes;
          Table.cell_pct r.ratio_gt_1_fraction;
          Table.cell_pct r.nvram_friendly_fraction;
        ])
    data.reports;
  add_table buf t;

  section buf "Figure 7 — data untouched by the main loop";
  let t =
    Table.create
      [ ("Application", Table.Left); ("Untouched fraction", Table.Right) ]
  in
  List.iter
    (fun (app, fraction) ->
      Table.add_row t [ app; Table.cell_pct fraction ])
    data.untouched;
  add_table buf t;

  section buf "Figures 8–11 — per-iteration stability";
  let t =
    Table.create
      [
        ("Application", Table.Left);
        ("Objects", Table.Right);
        ("Mean fraction in [1,2)", Table.Right);
      ]
  in
  List.iter
    (fun (app, v) ->
      Table.add_row t
        [
          app;
          Table.cell_i v.Usage_variance.objects_considered;
          Table.cell_f (Usage_variance.stable_fraction v);
        ])
    data.variances;
  add_table buf t;

  section buf "Table VI — normalized average power (paper value in brackets)";
  let t =
    Table.create
      ([ ("Application", Table.Left) ]
      @ List.map
          (fun (tech : Technology.t) -> (tech.name, Table.Right))
          Technology.paper_set)
  in
  List.iter
    (fun (app, powers) ->
      let paper = List.assoc_opt app paper_table6 in
      let cells =
        List.mapi
          (fun i ((tech : Technology.t), p) ->
            if tech.tech = Technology.DDR3 then Table.cell_f ~prec:3 p
            else
              match paper with
              | Some values when i - 1 < List.length values ->
                Printf.sprintf "%.3f [%.3f]" p (List.nth values (i - 1))
              | _ -> Table.cell_f ~prec:3 p)
          powers
      in
      Table.add_row t (app :: cells))
    data.powers;
  add_table buf t;

  section buf "Figure 12 — normalized runtime vs memory latency";
  let t =
    Table.create
      ([ ("Application", Table.Left) ]
      @ List.map
          (fun (tech : Technology.t) ->
            ( Printf.sprintf "%s (%.0fns)" tech.name tech.perf_sim_latency_ns,
              Table.Right ))
          Technology.paper_set)
  in
  List.iter
    (fun (app, points) ->
      Table.add_row t
        (app
        :: List.map
             (fun (p : Experiment.fig12_cell) ->
               Table.cell_f ~prec:3 p.normalized_runtime)
             points))
    data.perf;
  add_table buf t;

  section buf "Reference-stream transport (pipeline counters)";
  let t =
    Table.create
      [
        ("Application", Table.Left);
        ("Batch capacity", Table.Right);
        ("References", Table.Right);
        ("Batches", Table.Right);
        ("Capacity flushes", Table.Right);
        ("Boundary flushes", Table.Right);
        ("Sinks (pushed/batches)", Table.Left);
      ]
  in
  List.iter
    (fun (app, (p : Nvsc_appkit.Ctx.pipeline_stats)) ->
      Table.add_row t
        [
          app;
          Table.cell_i p.Nvsc_appkit.Ctx.batch_capacity;
          Table.cell_i p.Nvsc_appkit.Ctx.refs;
          Table.cell_i p.Nvsc_appkit.Ctx.batches;
          Table.cell_i p.Nvsc_appkit.Ctx.capacity_flushes;
          Table.cell_i p.Nvsc_appkit.Ctx.boundary_flushes;
          String.concat ", "
            (List.map
               (fun (s : Nvsc_memtrace.Sink.stats) ->
                 Printf.sprintf "%s %d/%d" s.Nvsc_memtrace.Sink.name
                   s.Nvsc_memtrace.Sink.pushed s.Nvsc_memtrace.Sink.batches)
               p.Nvsc_appkit.Ctx.sinks);
        ])
    data.pipelines;
  add_table buf t;
  Buffer.contents buf
