module Ctx = Nvsc_appkit.Ctx

let run_app ?(scale = 0.25) ?(iterations = 2) (module A : Nvsc_apps.Workload.APP)
    =
  let ctx = Ctx.create () in
  A.run ~scale ctx ~iterations;
  ctx

let test_registry () =
  Alcotest.(check (list string)) "paper order"
    [ "nek5000"; "cam"; "gtc"; "s3d" ]
    Nvsc_apps.Apps.names;
  Alcotest.(check bool) "find is case-insensitive" true
    (Nvsc_apps.Apps.find "CAM" <> None);
  Alcotest.(check bool) "unknown" true (Nvsc_apps.Apps.find "hpl" = None)

let test_each_app_runs_cleanly () =
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      let ctx = run_app (module A) in
      Alcotest.(check bool)
        (A.name ^ " produces references")
        true
        (Ctx.total_references ctx > 10_000);
      Alcotest.(check int) (A.name ^ " fully attributed") 0 (Ctx.unattributed ctx);
      Alcotest.(check int)
        (A.name ^ " balanced shadow stack")
        0
        (Nvsc_memtrace.Shadow_stack.depth (Ctx.shadow ctx)))
    Nvsc_apps.Apps.all

(* The whole traced pipeline, not just the context: every reference the
   scavenger sees resolves to an object. *)
let test_traced_pipeline_attributed () =
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      let r =
        Nvsc_core.Scavenger.run
          Nvsc_core.Scavenger.Config.(
            default |> with_scale 0.1 |> with_iterations 2 |> with_trace true)
          (module A)
      in
      Alcotest.(check int) (A.name ^ " fully attributed") 0 r.unattributed)
    Nvsc_apps.Apps.all

(* nek5000's kernels update in place without closures, so generating its
   references allocates little: 0.25 minor words per reference measured at
   this scale (0.73 with a closure per read-modify-write); the bound leaves
   headroom and fails if the closures come back. *)
let test_nek5000_allocation () =
  let ctx = Ctx.create () in
  let before = Gc.minor_words () in
  Nvsc_apps.Nek5000.run ~scale:0.1 ctx ~iterations:1;
  let words = Gc.minor_words () -. before in
  let per_ref = words /. float_of_int (Ctx.total_references ctx) in
  if per_ref >= 0.4 then
    Alcotest.failf
      "nek5000 makes %.3f minor words per reference (limit 0.4); was this \
       built with --profile dev?"
      per_ref

let test_determinism () =
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      let a = run_app (module A) in
      let b = run_app (module A) in
      Alcotest.(check int)
        (A.name ^ " deterministic reference count")
        (Ctx.total_references a) (Ctx.total_references b);
      let ta = Ctx.fast_tally_totals a and tb = Ctx.fast_tally_totals b in
      Alcotest.(check bool) (A.name ^ " deterministic tallies") true (ta = tb))
    Nvsc_apps.Apps.all

let test_iterations_scale_refs () =
  let (module A : Nvsc_apps.Workload.APP) = List.hd Nvsc_apps.Apps.all in
  let short = run_app ~iterations:1 (module A) in
  let long = run_app ~iterations:3 (module A) in
  Alcotest.(check bool) "more iterations, more references" true
    (Ctx.total_references long > Ctx.total_references short)

let test_scale_changes_footprint () =
  let (module A : Nvsc_apps.Workload.APP) =
    Option.get (Nvsc_apps.Apps.find "gtc")
  in
  let footprint ctx =
    List.fold_left
      (fun acc (o : Nvsc_memtrace.Mem_object.t) -> acc + o.size)
      0
      (Nvsc_memtrace.Object_registry.objects (Ctx.registry ctx))
  in
  let small = run_app ~scale:0.25 (module A) in
  let big = run_app ~scale:0.5 (module A) in
  Alcotest.(check bool) "scale grows footprint" true
    (footprint big > footprint small)

(* [--scale] stops at [Cli.max_scale]: each application's global and
   heap extents grow linearly with the scale, and at the bound they must
   still fit their [Layout] segments. *)
let test_max_scale_fits_segments () =
  let module L = Nvsc_memtrace.Layout in
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      let extent ctx kind base =
        List.fold_left
          (fun acc (o : Nvsc_memtrace.Mem_object.t) ->
            if o.kind = kind then max acc (o.base + o.size - base) else acc)
          0
          (Nvsc_memtrace.Object_registry.objects (Ctx.registry ctx))
      in
      let ctx = run_app ~scale:1.0 ~iterations:1 (module A) in
      List.iter
        (fun (kind, base, limit) ->
          let at_max =
            Nvsc_util.Cli.max_scale *. float_of_int (extent ctx kind base)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s extent at the largest scale: %.0f MB"
               A.name (L.kind_to_string kind) (at_max /. 1e6))
            true
            (at_max <= float_of_int (limit - base)))
        [
          (L.Global, L.global_base, L.global_limit);
          (L.Heap, L.heap_base, L.heap_limit);
        ])
    Nvsc_apps.Apps.extended

let test_invalid_iterations () =
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      Alcotest.(check bool) (A.name ^ " rejects 0 iterations") true
        (try
           A.run (Ctx.create ()) ~iterations:0;
           false
         with Invalid_argument _ -> true))
    Nvsc_apps.Apps.all

let test_phases_present () =
  (* every app must touch all three phases: pre (iter 0 before main),
     main iterations, and post *)
  List.iter
    (fun (module A : Nvsc_apps.Workload.APP) ->
      let ctx = run_app ~iterations:2 (module A) in
      let t0 = Ctx.fast_tally ctx ~iter:0 in
      let t1 = Ctx.fast_tally ctx ~iter:1 in
      let t2 = Ctx.fast_tally ctx ~iter:2 in
      let refs (t : Ctx.fast_tally) =
        t.stack_reads + t.stack_writes + t.other_reads + t.other_writes
      in
      Alcotest.(check bool) (A.name ^ " pre/post refs") true (refs t0 > 0);
      Alcotest.(check bool) (A.name ^ " iter1 refs") true (refs t1 > 0);
      Alcotest.(check bool) (A.name ^ " iter2 refs") true (refs t2 > 0))
    Nvsc_apps.Apps.all

let test_workload_helpers () =
  Alcotest.(check int) "scaled rounds" 3 (Nvsc_apps.Workload.scaled 0.5 6);
  Alcotest.(check int) "scaled floor is 1" 1 (Nvsc_apps.Workload.scaled 0.001 10);
  let ctx = Ctx.create () in
  let x = Nvsc_appkit.Farray.global ctx ~name:"x" 4 in
  let y = Nvsc_appkit.Farray.global ctx ~name:"y" 4 in
  Nvsc_appkit.Farray.init ctx x (fun _ -> 2.);
  Nvsc_appkit.Farray.init ctx y (fun _ -> 1.);
  Nvsc_apps.Workload.saxpy ctx ~alpha:3. ~x ~y;
  Alcotest.(check (float 1e-12)) "saxpy" 7. (Nvsc_appkit.Farray.peek y 0);
  Alcotest.(check (float 1e-12)) "dot" 56. (Nvsc_apps.Workload.dot ctx x y)

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "apps run cleanly" `Slow test_each_app_runs_cleanly;
    Alcotest.test_case "traced pipeline fully attributed" `Slow
      test_traced_pipeline_attributed;
    Alcotest.test_case "nek5000 allocation" `Quick test_nek5000_allocation;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "iterations scale references" `Slow
      test_iterations_scale_refs;
    Alcotest.test_case "scale changes footprint" `Slow
      test_scale_changes_footprint;
    Alcotest.test_case "largest scale fits the segments" `Slow
      test_max_scale_fits_segments;
    Alcotest.test_case "invalid iterations" `Quick test_invalid_iterations;
    Alcotest.test_case "phases present" `Slow test_phases_present;
    Alcotest.test_case "workload helpers" `Quick test_workload_helpers;
  ]
