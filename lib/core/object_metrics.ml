module Ctx = Nvsc_appkit.Ctx
module Counters = Nvsc_memtrace.Counters
module Mem_object = Nvsc_memtrace.Mem_object
module Object_registry = Nvsc_memtrace.Object_registry
module Stats = Nvsc_util.Stats

type t = {
  obj : Mem_object.t;
  reads : int;
  writes : int;
  rw_ratio : float;
  ref_share : float;
  per_iter_reads : int array;
  per_iter_writes : int array;
  iterations_used : int;
  touched_outside_main : bool;
}

let size_bytes t = t.obj.Mem_object.size

let is_read_only t = t.reads > 0 && t.writes = 0

let is_untouched_in_main t = t.reads = 0 && t.writes = 0

let per_iter_ratio t ~iter =
  if iter < 1 || iter > Array.length t.per_iter_reads then 0.
  else Stats.ratio t.per_iter_reads.(iter - 1) t.per_iter_writes.(iter - 1)

let per_iter_refs t ~iter =
  if iter < 1 || iter > Array.length t.per_iter_reads then 0
  else t.per_iter_reads.(iter - 1) + t.per_iter_writes.(iter - 1)

let item t =
  {
    Nvsc_placement.Item.id = t.obj.Mem_object.id;
    name = t.obj.Mem_object.name;
    size_bytes = size_bytes t;
    reads = t.reads;
    writes = t.writes;
    ref_share = t.ref_share;
  }

let suitability_metrics t =
  {
    Nvsc_nvram.Suitability.reads = t.reads;
    writes = t.writes;
    size_bytes = size_bytes t;
    ref_rate = t.ref_share;
  }

let total_main_refs_of counters ~iterations =
  List.fold_left
    (fun acc obj_id ->
      let per_obj = ref 0 in
      for iter = 1 to iterations do
        per_obj :=
          !per_obj
          + Counters.reads counters ~obj_id ~iter
          + Counters.writes counters ~obj_id ~iter
      done;
      acc + !per_obj)
    0
    (Counters.tracked_objects counters)

let total_main_refs ctx ~iterations =
  total_main_refs_of (Ctx.counters ctx) ~iterations

let of_object counters ~iterations ~total_refs obj =
  let obj_id = obj.Mem_object.id in
  let per_iter_reads =
    Array.init iterations (fun i -> Counters.reads counters ~obj_id ~iter:(i + 1))
  in
  let per_iter_writes =
    Array.init iterations (fun i -> Counters.writes counters ~obj_id ~iter:(i + 1))
  in
  let reads = Array.fold_left ( + ) 0 per_iter_reads in
  let writes = Array.fold_left ( + ) 0 per_iter_writes in
  let iterations_used =
    let n = ref 0 in
    for i = 0 to iterations - 1 do
      if per_iter_reads.(i) + per_iter_writes.(i) > 0 then incr n
    done;
    !n
  in
  let touched_outside_main =
    Counters.reads counters ~obj_id ~iter:0
    + Counters.writes counters ~obj_id ~iter:0
    > 0
  in
  {
    obj;
    reads;
    writes;
    rw_ratio = Stats.ratio reads writes;
    ref_share =
      (if total_refs = 0 then 0.
       else float_of_int (reads + writes) /. float_of_int total_refs);
    per_iter_reads;
    per_iter_writes;
    iterations_used;
    touched_outside_main;
  }

let collect_of ~counters ~objects ~iterations =
  if iterations < 1 then invalid_arg "Object_metrics.collect: iterations";
  let total_refs = total_main_refs_of counters ~iterations in
  List.map (of_object counters ~iterations ~total_refs) objects

let collect ctx ~iterations =
  let globals_and_heap = Object_registry.objects (Ctx.registry ctx) in
  let stack = Ctx.stack_objects ctx in
  collect_of ~counters:(Ctx.counters ctx)
    ~objects:(globals_and_heap @ stack)
    ~iterations
