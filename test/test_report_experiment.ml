(* The experiment harness, exercised on the quick configuration's
   sweep-engine data so data-form coverage is checked without a full-scale
   run. *)

module E = Nvsc_core.Experiment
module Engine = Nvsc_sweep.Engine

let data =
  lazy
    (let config = E.quick_config in
     let outcomes, _ =
       Engine.run ~jobs:1 (Engine.experiments_matrix ~config)
     in
     Engine.experiments_data ~config outcomes)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Every application's objects, power and perf cells made it into the
   evaluation data, and per-app lookup by name works. *)
let test_bundle_coverage () =
  let d = Lazy.force data in
  let apps = [ "nek5000"; "cam"; "gtc"; "s3d" ] in
  Alcotest.(check (list string)) "four apps, paper order" apps
    (List.map (fun (r : E.table1_row) -> r.app_name) d.rows);
  List.iter
    (fun (r : Nvsc_core.Object_analysis.report) ->
      Alcotest.(check bool) (r.app_name ^ " has objects") true (r.rows <> []))
    d.reports;
  let names l = List.map fst l in
  Alcotest.(check (list string)) "power per app" apps (names d.powers);
  Alcotest.(check (list string)) "perf per app" apps (names d.perf);
  Alcotest.(check bool) "lookup works" true
    (List.assoc "gtc" d.powers <> []);
  Alcotest.(check bool) "lookup missing raises" true
    (try
       ignore (List.assoc "hpl" d.powers);
       false
     with Not_found -> true)

let test_data_forms () =
  let d = Lazy.force data in
  Alcotest.(check int) "table5 rows" 4 (List.length d.summaries);
  Alcotest.(check bool) "fig2 frames" true
    ((Option.get d.cam_distribution).frames <> []);
  Alcotest.(check int) "fig3-6 reports" 4 (List.length d.reports);
  Alcotest.(check int) "fig7 omits gtc" 3 (List.length d.cdfs);
  Alcotest.(check int) "fig8-11 all apps" 4 (List.length d.variances);
  Alcotest.(check int) "table6 rows" 4 (List.length d.powers);
  List.iter
    (fun (_, powers) ->
      Alcotest.(check int) "four technologies" 4 (List.length powers))
    d.powers;
  Alcotest.(check int) "fig12 rows" 4 (List.length d.perf)

let test_printers_produce_output () =
  let d = Lazy.force data in
  let render f = Format.asprintf "%a" (fun fmt () -> f fmt) () in
  Alcotest.(check bool) "table1" true
    (contains ~needle:"Table I" (render (fun fmt -> E.pp_table1_rows fmt d.rows)));
  Alcotest.(check bool) "table2" true
    (contains ~needle:"no-write-allocate" (render (fun fmt -> E.table2 fmt ())));
  Alcotest.(check bool) "table3" true
    (contains ~needle:"miss buffer" (render (fun fmt -> E.table3 fmt ())));
  Alcotest.(check bool) "table4" true
    (contains ~needle:"PCRAM" (render (fun fmt -> E.table4 fmt ())));
  Alcotest.(check bool) "table5" true
    (contains ~needle:"Stack data analysis"
       (render (fun fmt ->
            Nvsc_core.Stack_analysis.pp_summary_table fmt d.summaries)));
  Alcotest.(check bool) "fig7 includes plot" true
    (contains ~needle:"cumulative MB"
       (render (fun fmt -> E.pp_fig7_data fmt d.cdfs)));
  Alcotest.(check bool) "table6 includes bars" true
    (contains ~needle:"normalized power"
       (render (fun fmt -> E.pp_table6_data fmt d.powers)))

let test_multi_task () =
  let a =
    Nvsc_core.Multi_task.run ~tasks:3 ~base_scale:0.25 ~iterations:2
      (Option.get (Nvsc_apps.Apps.find "s3d"))
  in
  Alcotest.(check int) "three tasks" 3 (List.length a.Nvsc_core.Multi_task.tasks);
  Alcotest.(check bool) "footprint summed" true
    (a.Nvsc_core.Multi_task.footprint_total
    > (List.hd a.Nvsc_core.Multi_task.tasks).Nvsc_core.Multi_task.footprint_bytes);
  (* the paper profiles one rank: its conclusions must be representative *)
  Alcotest.(check bool) "one rank is representative" true
    a.Nvsc_core.Multi_task.representative;
  Alcotest.(check bool) "scales differ (imbalance)" true
    (let scales =
       List.map
         (fun (t : Nvsc_core.Multi_task.task_summary) -> t.scale)
         a.Nvsc_core.Multi_task.tasks
     in
     List.length (List.sort_uniq compare scales) = 3)

(* property: the perf model's runtime is monotone in memory latency for any
   access pattern *)
let perf_monotone_prop =
  QCheck.Test.make ~name:"perf runtime monotone in latency" ~count:20
    QCheck.(list_of_size Gen.(int_range 10 400) (int_range 0 100_000))
    (fun lines ->
      let run lat =
        let m =
          Nvsc_cpusim.Perf_model.create_ledgers
            [ { mem_latency_ns = lat; mem_write_latency_ns = None } ]
        in
        List.iter
          (fun l ->
            Nvsc_cpusim.Perf_model.instructions m 3;
            Nvsc_cpusim.Perf_model.access_raw m ~addr:(l * 64) ~size:8
              ~op:Nvsc_memtrace.Access.Read)
          lines;
        (List.hd (Nvsc_cpusim.Perf_model.reports m))
          .Nvsc_cpusim.Perf_model.runtime_ns
      in
      let t10 = run 10. and t20 = run 20. and t100 = run 100. in
      t10 <= t20 +. 1e-9 && t20 <= t100 +. 1e-9)

(* property: controller energy components grow monotonically with traffic *)
let controller_monotone_prop =
  QCheck.Test.make ~name:"controller energy monotone in traffic" ~count:20
    QCheck.(int_range 1 2000)
    (fun n ->
      let run k =
        let c =
          Nvsc_dramsim.Controller.create
            ~tech:(Nvsc_nvram.Technology.get Nvsc_nvram.Technology.DDR3) ()
        in
        for i = 0 to k - 1 do
          Nvsc_dramsim.Controller.submit_ref c ~addr:(i * 64)
            ~op:Nvsc_memtrace.Access.Read
        done;
        (Nvsc_dramsim.Controller.stats c).Nvsc_dramsim.Controller.burst_energy_nj
      in
      run n < run (n + 100))

let suite =
  [
    Alcotest.test_case "bundle coverage" `Slow test_bundle_coverage;
    Alcotest.test_case "data forms" `Slow test_data_forms;
    Alcotest.test_case "printers produce output" `Slow
      test_printers_produce_output;
    Alcotest.test_case "multi-task representativeness" `Slow test_multi_task;
    QCheck_alcotest.to_alcotest perf_monotone_prop;
    QCheck_alcotest.to_alcotest controller_monotone_prop;
  ]
