(* Reference implementation: the per-object [Nvsc_memtrace.Counters] that
   the flat per-iteration planes replaced (a [per_object option] slot per
   id, each with its own growable per-iteration arrays and running
   totals).  Oracle for the differential qcheck property — do not
   optimize. *)

module Access = Nvsc_memtrace.Access

type per_object = {
  mutable reads : int array; (* indexed by iteration *)
  mutable writes : int array;
  mutable total_reads : int;
  mutable total_writes : int;
}

(* Object ids are small dense ints (allocation order), so the table is a
   flat array indexed by id: the per-reference path is a load and a match,
   with no hashing and no option allocation — a hash lookup here cost more
   than the rest of the record path combined when successive references
   alternate between objects (array sweeps with a stack temporary). *)
type t = {
  mutable slots : per_object option array; (* indexed by object id *)
  mutable iter : int;
  mutable max_iter : int;
  mutable grand_total : int;
}

let fresh_po () =
  { reads = Array.make 4 0; writes = Array.make 4 0;
    total_reads = 0; total_writes = 0 }

let create () =
  { slots = Array.make 64 None; iter = 0; max_iter = 0; grand_total = 0 }

let set_iteration t i =
  if i < 0 then invalid_arg "Counters.set_iteration: negative iteration";
  t.iter <- i;
  if i > t.max_iter then t.max_iter <- i

let iteration t = t.iter

let ensure_capacity po iter =
  let cap = Array.length po.reads in
  if iter >= cap then begin
    let cap' = Stdlib.max (iter + 1) (2 * cap) in
    let grow a =
      let a' = Array.make cap' 0 in
      Array.blit a 0 a' 0 cap;
      a'
    in
    po.reads <- grow po.reads;
    po.writes <- grow po.writes
  end

(* Slow path: negative-id rejection, table growth and slot creation. *)
let get_or_create t obj_id =
  if obj_id < 0 then invalid_arg "Counters: negative object id";
  let cap = Array.length t.slots in
  if obj_id >= cap then begin
    let cap' = ref (2 * cap) in
    while obj_id >= !cap' do
      cap' := 2 * !cap'
    done;
    let slots = Array.make !cap' None in
    Array.blit t.slots 0 slots 0 cap;
    t.slots <- slots
  end;
  match Array.unsafe_get t.slots obj_id with
  | Some po -> po
  | None ->
    let po = fresh_po () in
    Array.unsafe_set t.slots obj_id (Some po);
    po

let[@inline] find t obj_id =
  if obj_id >= 0 && obj_id < Array.length t.slots then
    Array.unsafe_get t.slots obj_id
  else None

let record_n t ~obj_id ~op ~n =
  if n < 0 then invalid_arg "Counters.record_n: negative count";
  if n > 0 then begin
    let po = get_or_create t obj_id in
    let iter = t.iter in
    ensure_capacity po iter;
    (match op with
    | Access.Read ->
      let r = po.reads in
      Array.unsafe_set r iter (Array.unsafe_get r iter + n);
      po.total_reads <- po.total_reads + n
    | Access.Write ->
      let w = po.writes in
      Array.unsafe_set w iter (Array.unsafe_get w iter + n);
      po.total_writes <- po.total_writes + n);
    t.grand_total <- t.grand_total + n
  end

(* The per-reference hot path (one call per emitted access): resident ids
   resolve with one load, and after [ensure_capacity] the iteration index
   is within both arrays, so the accumulations are unchecked. *)
let[@inline] record t ~obj_id ~op =
  let po =
    if obj_id >= 0 && obj_id < Array.length t.slots then
      match Array.unsafe_get t.slots obj_id with
      | Some po -> po
      | None -> get_or_create t obj_id
    else get_or_create t obj_id
  in
  let iter = t.iter in
  if iter >= Array.length po.reads then ensure_capacity po iter;
  (match op with
  | Access.Read ->
    let r = po.reads in
    Array.unsafe_set r iter (Array.unsafe_get r iter + 1);
    po.total_reads <- po.total_reads + 1
  | Access.Write ->
    let w = po.writes in
    Array.unsafe_set w iter (Array.unsafe_get w iter + 1);
    po.total_writes <- po.total_writes + 1);
  t.grand_total <- t.grand_total + 1

let count_at a iter = if iter < Array.length a then a.(iter) else 0

let reads t ~obj_id ~iter =
  match find t obj_id with
  | None -> 0
  | Some po -> count_at po.reads iter

let writes t ~obj_id ~iter =
  match find t obj_id with
  | None -> 0
  | Some po -> count_at po.writes iter

let total_reads t ~obj_id =
  match find t obj_id with None -> 0 | Some po -> po.total_reads

let total_writes t ~obj_id =
  match find t obj_id with None -> 0 | Some po -> po.total_writes

let grand_total t = t.grand_total

let iterations_touched t ~obj_id =
  match find t obj_id with
  | None -> []
  | Some po ->
    (* descending scan builds the ascending list directly: the only
       allocations are the list cells themselves *)
    let rec build i acc =
      if i < 0 then acc
      else
        build (i - 1)
          (if po.reads.(i) > 0 || po.writes.(i) > 0 then i :: acc else acc)
    in
    build (Array.length po.reads - 1) []

let touched_in_main_loop t ~obj_id =
  match find t obj_id with
  | None -> false
  | Some po ->
    let n = Array.length po.reads in
    let rec scan i =
      i < n && (po.reads.(i) > 0 || po.writes.(i) > 0 || scan (i + 1))
    in
    scan 1

let max_iteration t = t.max_iter

let tracked_objects t =
  (* slot order is already ascending; the [Int.compare] sort keeps the
     contract explicit and representation-independent (monomorphic, no
     generic-compare dispatch) *)
  let acc = ref [] in
  for id = Array.length t.slots - 1 downto 0 do
    match t.slots.(id) with Some _ -> acc := id :: !acc | None -> ()
  done;
  List.sort Int.compare !acc
