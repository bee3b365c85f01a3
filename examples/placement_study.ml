(* Hybrid-memory placement study.

   Profiles Nek5000, then compares two ways of exploiting a hybrid
   DRAM+STTRAM system (the paper's §II horizontal design):

   - a static, profile-driven placement decided once from the whole run;
   - the dynamic epoch-based policy in the style of Ramos et al. (the
     paper's reference [3]), migrating objects between memories as their
     per-iteration behaviour is observed.

   Run with: dune exec examples/placement_study.exe *)

module HM = Nvsc_placement.Hybrid_memory
module OM = Nvsc_core.Object_metrics
module PP = Nvsc_core.Profile_placement

let () =
  let result =
    Nvsc_core.Scavenger.run
      Nvsc_core.Scavenger.Config.(
        default |> with_scale 0.5 |> with_iterations 8)
      (Option.get (Nvsc_apps.Apps.find "nek5000"))
  in
  let metrics = Nvsc_core.Scavenger.global_and_heap_metrics result in
  let items = PP.items result in
  let tech = Nvsc_nvram.Technology.get Nvsc_nvram.Technology.STTRAM in
  let capacity = 2 * result.footprint_bytes in

  (* --- static placement ------------------------------------------------ *)
  let static = PP.static_plan ~tech result items in
  Format.printf "static placement of %s:@." result.app_name;
  Format.printf "  objects in NVRAM: %d / %d@."
    (List.length (HM.items_in static HM.Nvram))
    (List.length items);
  Format.printf "  %a@.@." HM.pp_assessment (HM.assess static);

  (* --- dynamic placement ----------------------------------------------- *)
  (* start everything in NVRAM (maximum static-power saving) and let the
     policy pull hot writers back into DRAM epoch by epoch *)
  let hybrid = HM.create ~dram_bytes:capacity ~nvram_bytes:capacity ~tech in
  List.iter (fun item -> HM.place hybrid item HM.Nvram) items;
  let policy = Nvsc_placement.Dynamic_policy.create ~hybrid () in
  for iter = 1 to result.iterations do
    let epoch =
      List.map2
        (fun (m : OM.t) item ->
          {
            Nvsc_placement.Dynamic_policy.item;
            reads = m.per_iter_reads.(iter - 1);
            writes = m.per_iter_writes.(iter - 1);
          })
        metrics items
    in
    Nvsc_placement.Dynamic_policy.observe_epoch policy epoch
  done;
  Format.printf "dynamic placement after %d epochs:@." result.iterations;
  Format.printf "  promotions (NVRAM->DRAM): %d, demotions: %d, migrated %a@."
    (Nvsc_placement.Dynamic_policy.promotions policy)
    (Nvsc_placement.Dynamic_policy.demotions policy)
    Nvsc_util.Units.pp_bytes
    (HM.migrated_bytes hybrid);
  Format.printf "  %a@." HM.pp_assessment (HM.assess hybrid)
