module Suitability = Nvsc_nvram.Suitability

let score (item : Item.t) =
  float_of_int item.size_bytes /. (1. +. (1e6 *. Item.write_share item))

let plan ?(thresholds = Suitability.default_thresholds) ~hybrid items =
  Nvsc_obs.Span.with_ "placement.plan" @@ fun () ->
  let tech = Hybrid_memory.tech hybrid in
  let wants_nvram item =
    match
      Suitability.classify ~thresholds ~category:tech.Nvsc_nvram.Technology.category
        (Item.suitability item)
    with
    | Suitability.Nvram_friendly | Suitability.Nvram_candidate -> true
    | Suitability.Dram_preferred -> false
  in
  let candidates, dram_first = List.partition wants_nvram items in
  let by_score =
    List.sort (fun a b -> compare (score b) (score a)) candidates
  in
  (* Fill NVRAM best-first; spill to DRAM when NVRAM is full. *)
  List.iter
    (fun item ->
      if Hybrid_memory.free_bytes hybrid Hybrid_memory.Nvram >= item.Item.size_bytes
      then Hybrid_memory.place hybrid item Hybrid_memory.Nvram
      else Hybrid_memory.place hybrid item Hybrid_memory.Dram)
    by_score;
  List.iter
    (fun item ->
      if Hybrid_memory.free_bytes hybrid Hybrid_memory.Dram >= item.Item.size_bytes
      then Hybrid_memory.place hybrid item Hybrid_memory.Dram
      else Hybrid_memory.place hybrid item Hybrid_memory.Nvram)
    dram_first;
  hybrid
