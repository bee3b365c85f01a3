(* NVSC-Persist: adversarial crash-consistency defects + checker assertions.

   The defect app seeds one instance of every injectable defect class per
   main iteration — (1) store + commit without flush, (2) store again
   while a write-back is still unfenced, (3) flush + commit without fence
   — plus the epoch-shape and warning classes as one-shots, and the tests
   assert the checker reports exactly those classes with exactly those
   counts, at batch capacities 1, 7 and 65536, live and over a recorded
   trace, while the six shipped mini-apps (all epoch-annotated) report
   nothing at all. *)

module Ctx = Nvsc_appkit.Ctx
module Mem_object = Nvsc_memtrace.Mem_object
module Trace_run = Nvsc_core.Trace_run
module Scavenger = Nvsc_core.Scavenger
module P = Nvsc_sanitizer.Persist_check
module D = Nvsc_sanitizer.Diagnostic

let with_tmp f =
  let path = Filename.temp_file "nvsc-persist" ".nvt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- the adversarial app ------------------------------------------------- *)

let words = 16 (* 128 bytes: two cache lines per object *)

let defect_app : (module Nvsc_apps.Workload.APP) =
  (module struct
    let name = "persist-defect"
    let description = "seeded crash-consistency defects"
    let input_description = "adversarial"
    let paper_footprint_mb = 0.

    let run ?scale ctx ~iterations =
      ignore scale;
      Ctx.set_phase ctx Mem_object.Pre;
      let g name = Ctx.alloc_global ctx ~name ~words in
      let p_commit = g "p_commit" in
      let p_race = g "p_race" in
      let p_torn = g "p_torn" in
      let p_clean = g "p_clean" in
      let g_plain = g "g_plain" in
      List.iter (Ctx.persist ctx) [ p_commit; p_race; p_torn; p_clean ];
      for iter = 1 to iterations do
        Ctx.set_phase ctx (Mem_object.Main iter);
        (* (1) dirty lines at commit: store, never flush *)
        Ctx.epoch_begin ctx ~label:"unflushed";
        Ctx.write_addr ctx ~addr:p_commit.Mem_object.base;
        Ctx.epoch_commit ctx ~label:"unflushed";
        (* make p_commit durable outside the epoch so later commits are
           judged on their own defects only *)
        Ctx.flush_all ctx p_commit;
        Ctx.fence ctx;
        (* (2) store overtakes an unfenced write-back *)
        Ctx.epoch_begin ctx ~label:"race";
        Ctx.write_addr ctx ~addr:p_race.Mem_object.base;
        Ctx.flush_all ctx p_race;
        Ctx.write_addr ctx ~addr:p_race.Mem_object.base;
        Ctx.flush_all ctx p_race;
        Ctx.fence ctx;
        Ctx.epoch_commit ctx ~label:"race";
        (* (3) flushed but unfenced at commit *)
        Ctx.epoch_begin ctx ~label:"torn";
        Ctx.write_addr ctx ~addr:p_torn.Mem_object.base;
        Ctx.flush_all ctx p_torn;
        Ctx.epoch_commit ctx ~label:"torn";
        Ctx.fence ctx;
        (* warnings: a flush covering no dirty line, a fence with nothing
           in flight *)
        Ctx.flush_all ctx p_clean;
        Ctx.fence ctx;
        if iter = iterations then begin
          (* flush of an object never declared persistent *)
          Ctx.flush_all ctx g_plain;
          (* the epoch-shape defects, one of each *)
          Ctx.epoch_commit ctx ~label:"orphan";
          Ctx.epoch_begin ctx ~label:"a";
          Ctx.epoch_commit ctx ~label:"b";
          Ctx.epoch_begin ctx ~label:"outer";
          Ctx.epoch_begin ctx ~label:"inner";
          Ctx.epoch_commit ctx ~label:"inner";
          Ctx.epoch_commit ctx ~label:"outer";
          Ctx.epoch_begin ctx ~label:"dangling"
        end
      done;
      Ctx.set_phase ctx Mem_object.Post
  end)

let iterations = 3

let run_defect ~capacity =
  let module A = (val defect_app : Nvsc_apps.Workload.APP) in
  let ctx = Ctx.create ~batch_capacity:capacity () in
  let chk = P.attach ctx in
  A.run ctx ~iterations;
  Ctx.flush_refs ctx;
  P.finish chk

let shape report =
  List.map
    (fun (f : D.finding) -> (D.klass_to_string f.klass, f.owner, f.count))
    report

let shape_t = Alcotest.(triple string string int)

let expected_defects =
  (* in report order: severity, then class rank, then owner *)
  [
    ("unflushed-at-commit", "p_commit", iterations);
    ("store-during-flush", "p_race", iterations);
    ("torn-checkpoint", "p_torn", iterations);
    ("epoch-unbalanced", "b", 1);
    ("epoch-unbalanced", "dangling", 1);
    ("epoch-unbalanced", "inner", 1);
    ("epoch-unbalanced", "orphan", 1);
    ("redundant-flush", "g_plain", 1);
    ("redundant-flush", "p_clean", iterations);
    ("useless-fence", "<fence>", iterations);
  ]

let test_defect_classes () =
  let report = run_defect ~capacity:65536 in
  Alcotest.(check (list shape_t))
    "every seeded class, nothing else" expected_defects (shape report)

let test_first_occurrence () =
  let report = run_defect ~capacity:7 in
  List.iter
    (fun (f : D.finding) ->
      match f.klass with
      | D.Unflushed_commit | D.Flush_race | D.Torn_checkpoint ->
        (match f.first with
        | Some { phase = Mem_object.Main 1; index } ->
          Alcotest.(check bool)
            ("positive index: " ^ f.owner)
            true (index > 0)
        | _ ->
          Alcotest.failf "%s: first occurrence should be in main[1]" f.owner)
      | D.Epoch_unbalanced when f.owner = "dangling" ->
        (* reported at finish, under the phase the run ended in *)
        (match f.first with
        | Some { phase = Mem_object.Post; _ } -> ()
        | _ -> Alcotest.failf "dangling epoch should surface in post")
      | _ ->
        Alcotest.(check bool)
          ("live finding has no trace position: " ^ f.owner)
          true (f.source = None))
    report

let render = Format.asprintf "%a" D.pp_report

let test_capacity_determinism () =
  let r1 = run_defect ~capacity:1 in
  let r7 = run_defect ~capacity:7 in
  let r64k = run_defect ~capacity:65536 in
  Alcotest.(check string) "capacity 1 = capacity 65536" (render r64k)
    (render r1);
  Alcotest.(check string) "capacity 7 = capacity 65536" (render r64k)
    (render r7)

let capacity_property =
  QCheck.Test.make
    ~name:"persist verdict invariant under any batch capacity" ~count:16
    QCheck.(make ~print:string_of_int Gen.(int_range 1 512))
    (let baseline = lazy (render (run_defect ~capacity:65536)) in
     fun capacity -> render (run_defect ~capacity) = Lazy.force baseline)

(* --- live vs replay ------------------------------------------------------ *)

let record_defect path =
  ignore (Trace_run.record ~scale:1.0 ~iterations ~path defect_app)

let test_live_vs_replay () =
  with_tmp @@ fun path ->
  record_defect path;
  let live = run_defect ~capacity:65536 in
  let replayed, chk = P.replay path in
  Alcotest.(check (list shape_t))
    "same verdict from the trace" (shape live) (shape replayed);
  Alcotest.(check bool)
    "same first occurrences" true
    (List.map (fun (f : D.finding) -> f.first) live
    = List.map (fun (f : D.finding) -> f.first) replayed);
  Alcotest.(check bool)
    "replayed findings carry a trace position" true
    (List.for_all
       (fun (f : D.finding) ->
         match f.source with
         | Some { D.file; chunk; record } ->
           file = path && chunk >= 0 && record >= 0
         | None -> false)
       replayed);
  Alcotest.(check int)
    "all epoch boundaries seen"
    ((6 * iterations) + 8)
    (P.epoch_boundaries chk)

let errors_only report =
  List.filter (fun (f : D.finding) -> f.severity = D.Error) report

(* Every crash point's report, from the one whole-trace replay. *)
let crash_reports path =
  let points = ref [] in
  let whole, chk =
    P.replay path ~at_boundary:(fun k r -> points := (k, r) :: !points)
  in
  (whole, chk, List.rev !points)

let test_crash_injection () =
  with_tmp @@ fun path ->
  record_defect path;
  let _, _, points = crash_reports path in
  let at k = List.assoc k points in
  (* boundary 0 is the first epoch_begin: crashing right after it leaves
     the epoch open, which is the crash, not a defect *)
  Alcotest.(check (list shape_t)) "crash inside first epoch is clean" []
    (shape (at 0));
  (* boundary 1 is the first "unflushed" commit: the surviving prefix
     holds exactly that one defect *)
  Alcotest.(check (list shape_t))
    "crash after first commit keeps its verdict"
    [ ("unflushed-at-commit", "p_commit", 1) ]
    (shape (at 1));
  (* boundary 5 is the first "torn" commit: all three error classes of
     iteration 1 are visible, and none of the warnings that follow *)
  Alcotest.(check (list shape_t))
    "prefix up to the torn commit"
    [
      ("unflushed-at-commit", "p_commit", 1);
      ("store-during-flush", "p_race", 1);
      ("torn-checkpoint", "p_torn", 1);
    ]
    (shape (at 5))

let test_crashsim_clean_app () =
  with_tmp @@ fun path ->
  ignore
    (Trace_run.record ~scale:0.1 ~iterations:2 ~path
       (Option.get (Nvsc_apps.Apps.find "minimd")));
  let whole, chk, points = crash_reports path in
  let boundaries = P.epoch_boundaries chk in
  Alcotest.(check int) "one epoch per iteration" 4 boundaries;
  Alcotest.(check (list shape_t)) "whole trace is clean" [] (shape whole);
  Alcotest.(check (list int))
    "one crash point per boundary"
    (List.init boundaries Fun.id)
    (List.map fst points);
  List.iter
    (fun (k, report) ->
      Alcotest.(check (list shape_t))
        (Printf.sprintf "crash point %d is consistent" k)
        [] (shape report))
    points

(* --- shipped apps are crash-consistent ----------------------------------- *)

let test_shipped_apps_persist_clean () =
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      let r =
        Scavenger.run
          Scavenger.Config.(
            default |> with_scale 0.25 |> with_iterations 2
            |> with_persist true)
          (module A)
      in
      let report = Option.get r.Scavenger.persist_report in
      Alcotest.(check (list shape_t)) (A.name ^ " is clean") [] (shape report);
      let stats = Option.get r.Scavenger.persist_stats in
      Alcotest.(check int) (A.name ^ ": one epoch per iteration") 2
        stats.P.epochs;
      Alcotest.(check int) (A.name ^ ": one fence per epoch") 2 stats.P.fences;
      Alcotest.(check bool)
        (A.name ^ ": persist-set stores were checked")
        true
        (stats.P.stores_checked > 0 && stats.P.flushed_lines > 0))
    Nvsc_apps.Apps.extended

(* --- nvscav lint --persist ------------------------------------------------- *)

(* The app with its [run] calls counted: the lint path must make exactly
   one application run. *)
let counted (module A : Nvsc_apps.Workload.APP) =
  let runs = ref 0 in
  ( (module struct
      include A

      let run ?scale ctx ~iterations =
        incr runs;
        A.run ?scale ctx ~iterations
    end : Nvsc_apps.Workload.APP),
    runs )

let lint ~scale ~iterations app =
  let app, runs = counted app in
  let report, _ =
    Scavenger.lint ~scale ~iterations ~check_init:false ~persist:true app
  in
  Alcotest.(check int) "one application run" 1 !runs;
  report

let test_lint_persist_clean () =
  List.iter
    (fun (scale, iterations) ->
      List.iter
        (fun (module A : Nvsc_apps.Workload.APP) ->
          Alcotest.(check (list shape_t))
            (Printf.sprintf "%s lints clean at %g x %d" A.name scale
               iterations)
            []
            (shape (lint ~scale ~iterations (module A))))
        Nvsc_apps.Apps.extended)
    [ (0.1, 2); (0.25, 3); (1.0, 10) ]

let test_lint_defect_report () =
  (* every epoch defect once: the lint report is the checker's *)
  let report = lint ~scale:1.0 ~iterations defect_app in
  Alcotest.(check (list shape_t))
    "the checker's classes, each once" expected_defects (shape report);
  Alcotest.(check (pair int int)) "errors, warnings" (13, 7)
    (D.errors report, D.warnings report)

let hot_app : (module Nvsc_apps.Workload.APP) =
  (module struct
    let name = "hot-persist"
    let description = "rewrites its persist set every pass"
    let input_description = "adversarial"
    let paper_footprint_mb = 0.

    let run ?scale ctx ~iterations =
      ignore scale;
      Ctx.set_phase ctx Mem_object.Pre;
      let hot = Ctx.alloc_global ctx ~name:"hot" ~words:64 in
      Ctx.persist ctx hot;
      for iter = 1 to iterations do
        Ctx.set_phase ctx (Mem_object.Main iter);
        for _pass = 1 to 8 do
          for k = 0 to 63 do
            Ctx.write_addr ctx ~addr:(hot.Mem_object.base + (8 * k))
          done
        done;
        Ctx.epoch_begin ctx ~label:"ckpt";
        Ctx.flush_all ctx hot;
        Ctx.fence ctx;
        Ctx.epoch_commit ctx ~label:"ckpt"
      done;
      Ctx.set_phase ctx Mem_object.Post
  end)

let test_lint_write_heavy () =
  (* 8 writes/word/iteration is over the wear threshold (4): the data is
     checkpoint-shaped but too hot to pin in NVRAM wholesale *)
  Alcotest.(check (list shape_t))
    "write-heavy persist set flagged"
    [ ("persist-write-heavy", "hot", 1) ]
    (shape (lint ~scale:1.0 ~iterations:2 hot_app));
  (* but the same app honours the durability contract: the checker alone
     finds nothing *)
  let module A = (val hot_app : Nvsc_apps.Workload.APP) in
  let ctx = Ctx.create () in
  let chk = P.attach ctx in
  A.run ctx ~iterations:2;
  Ctx.flush_refs ctx;
  Alcotest.(check (list shape_t))
    "dynamically clean" [] (shape (P.finish chk))

let suite =
  [
    Alcotest.test_case "defect app: all classes detected" `Quick
      test_defect_classes;
    Alcotest.test_case "first occurrences" `Quick test_first_occurrence;
    Alcotest.test_case "verdict invariant under batch capacity" `Quick
      test_capacity_determinism;
    Alcotest.test_case "live and replay verdicts identical" `Quick
      test_live_vs_replay;
    Alcotest.test_case "crash injection truncates the verdict" `Quick
      test_crash_injection;
    Alcotest.test_case "crashsim: clean app consistent at every point" `Quick
      test_crashsim_clean_app;
    Alcotest.test_case "shipped apps are crash-consistent" `Slow
      test_shipped_apps_persist_clean;
    Alcotest.test_case "shipped apps lint --persist clean" `Slow
      test_lint_persist_clean;
    Alcotest.test_case "lint: each defect once" `Quick
      test_lint_defect_report;
    Alcotest.test_case "lint: write-heavy persist set" `Quick
      test_lint_write_heavy;
    QCheck_alcotest.to_alcotest capacity_property;
  ]
