(* The beyond-the-paper workloads: MiniFE and MiniMD exist to check that
   the paper's data-structure classes generalise. *)

module OM = Nvsc_core.Object_metrics
module Mem_object = Nvsc_memtrace.Mem_object

let test_registry_extended () =
  Alcotest.(check int) "paper set size" 4 (List.length Nvsc_apps.Apps.all);
  Alcotest.(check int) "extended size" 6 (List.length Nvsc_apps.Apps.extended);
  Alcotest.(check bool) "find minife" true (Nvsc_apps.Apps.find "minife" <> None);
  Alcotest.(check bool) "find minimd" true (Nvsc_apps.Apps.find "MiniMD" <> None);
  Alcotest.(check bool) "paper names exclude extras" true
    (not (List.mem "minife" Nvsc_apps.Apps.names));
  Alcotest.(check bool) "extended names include extras" true
    (List.mem "minife" Nvsc_apps.Apps.extended_names)

let run name =
  Nvsc_core.Scavenger.run
    Nvsc_core.Scavenger.Config.(
      default |> with_scale 0.5 |> with_iterations 6)
    (Option.get (Nvsc_apps.Apps.find name))

let metric result name =
  List.find
    (fun (m : OM.t) -> m.obj.Mem_object.name = name)
    result.Nvsc_core.Scavenger.metrics

let test_minife_readonly_dominates () =
  let r = run "minife" in
  let rep = Nvsc_core.Object_analysis.analyze r in
  (* the CSR arrays put MiniFE far beyond the paper's 7-15% read-only *)
  Alcotest.(check bool) "read-only fraction > 40%" true
    (rep.Nvsc_core.Object_analysis.read_only_fraction > 0.4);
  Alcotest.(check bool) "NVRAM-suitable > 40%" true
    (rep.Nvsc_core.Object_analysis.nvram_friendly_fraction > 0.4);
  List.iter
    (fun name ->
      let m = metric r name in
      Alcotest.(check bool) (name ^ " read-only") true (OM.is_read_only m))
    [ "values"; "col_idx"; "row_ptr" ];
  Alcotest.(check int) "clean run" 0 r.Nvsc_core.Scavenger.unattributed

let test_minimd_neighbor_list_bursts () =
  let r = run "minimd" in
  let nl = metric r "neighbor_list" in
  (* rebuilds happen in iterations 1 and 6; every other iteration the list
     is read-only — the temporally NVRAM-friendly pattern of §VII-C *)
  List.iter
    (fun iter ->
      Alcotest.(check bool)
        (Printf.sprintf "iter %d writes" iter)
        true
        (nl.OM.per_iter_writes.(iter - 1) > 0))
    [ 1; 6 ];
  List.iter
    (fun iter ->
      Alcotest.(check int)
        (Printf.sprintf "iter %d read-only" iter)
        0
        nl.OM.per_iter_writes.(iter - 1);
      Alcotest.(check bool)
        (Printf.sprintf "iter %d ratio infinite" iter)
        true
        (OM.per_iter_ratio nl ~iter = infinity))
    [ 2; 3; 4; 5 ]

let test_minimd_short_term_heap () =
  let r = run "minimd" in
  let bins = metric r "cell_bins" in
  (* allocated inside a main-loop iteration: a short-term object, excluded
     from the figure-7 population *)
  Alcotest.(check bool) "allocated mid-loop" true
    (match bins.OM.obj.Mem_object.alloc_phase with
    | Mem_object.Main _ -> true
    | _ -> false);
  let cdf_total =
    (List.nth (Nvsc_core.Usage_variance.usage_cdf r) r.Nvsc_core.Scavenger.iterations)
      .Nvsc_core.Usage_variance.cumulative_bytes
  in
  Alcotest.(check bool) "excluded from long-term footprint" true
    (cdf_total < r.Nvsc_core.Scavenger.footprint_bytes)

let test_dynamic_policy_exploits_minimd () =
  (* the neighbour list is promoted to DRAM during its rebuild epochs and
     demoted back once the write burst ends; with the run ending on
     read-only epochs, the dynamic policy leaves it in NVRAM *)
  let p =
    Nvsc_core.Extensions.placement_summary
      (Nvsc_core.Extensions.profile ~scale:0.5 ~iterations:8
         (Option.get (Nvsc_apps.Apps.find "minimd")))
  in
  Alcotest.(check bool) "dynamic uses NVRAM" true
    (p.Nvsc_core.Extensions.dynamic_nvram_fraction > 0.2);
  Alcotest.(check bool) "migration churn from the bursts" true
    (p.Nvsc_core.Extensions.migrations >= 2)

let test_minife_static_plan_wins () =
  let p =
    Nvsc_core.Extensions.placement_summary (run "minife")
  in
  (* the CSR arrays make even a static plan place a big NVRAM share *)
  Alcotest.(check bool) "static NVRAM share > 40%" true
    (p.Nvsc_core.Extensions.static_nvram_fraction > 0.4);
  Alcotest.(check bool) "negligible slowdown bound (STTRAM reads)" true
    (p.Nvsc_core.Extensions.static_slowdown_bound < 1.05)

let test_determinism_extras () =
  List.iter
    (fun name ->
      let a = run name and b = run name in
      Alcotest.(check int) (name ^ " deterministic")
        a.Nvsc_core.Scavenger.total_main_refs
        b.Nvsc_core.Scavenger.total_main_refs)
    [ "minife"; "minimd" ]

let suite =
  [
    Alcotest.test_case "extended registry" `Quick test_registry_extended;
    Alcotest.test_case "minife: read-only dominates" `Slow
      test_minife_readonly_dominates;
    Alcotest.test_case "minimd: neighbor-list bursts" `Slow
      test_minimd_neighbor_list_bursts;
    Alcotest.test_case "minimd: short-term heap" `Slow
      test_minimd_short_term_heap;
    Alcotest.test_case "minimd: dynamic policy exploits it" `Slow
      test_dynamic_policy_exploits_minimd;
    Alcotest.test_case "minife: static plan wins" `Slow
      test_minife_static_plan_wins;
    Alcotest.test_case "extras deterministic" `Slow test_determinism_extras;
  ]
