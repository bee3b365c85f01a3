module HM = Nvsc_placement.Hybrid_memory
module Technology = Nvsc_nvram.Technology

let items r =
  List.map Object_metrics.item (Scavenger.global_and_heap_metrics r)

let hybrid ~tech (r : Scavenger.result) =
  HM.create ~dram_bytes:(2 * r.footprint_bytes)
    ~nvram_bytes:(2 * r.footprint_bytes) ~tech

let static_plan ~tech r items =
  Nvsc_placement.Static_policy.plan ~hybrid:(hybrid ~tech r) items

let dynamic_start ~tech r items =
  let hybrid = hybrid ~tech r in
  List.iter (fun item -> HM.place hybrid item HM.Nvram) items;
  let demote_popular_reads =
    match tech.Technology.category with
    | Technology.Cat2_long_write | Technology.Cat3_dram_like -> true
    | Technology.Cat1_long_read_write | Technology.Volatile -> false
  in
  Nvsc_placement.Dynamic_policy.create ~demote_popular_reads ~hybrid ()
