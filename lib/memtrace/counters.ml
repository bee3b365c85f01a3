(* One flat plane per iteration and per direction, indexed by object id:
   [reads.(iter).(id)], [writes.(iter).(id)].  Object ids are small dense
   ints (allocation order), so a plane is a plain int array.  The current
   iteration's planes are cached in [cur_reads]/[cur_writes], so the
   per-reference path is one bounds test and one increment: no option
   match, no per-object record, no running totals.  Totals are computed
   when queried, which happens once per object per run. *)
type t = {
  mutable reads : int array array; (* indexed by iteration, then id *)
  mutable writes : int array array;
  mutable cur_reads : int array; (* = reads.(iter) *)
  mutable cur_writes : int array; (* = writes.(iter), same length *)
  mutable width : int; (* plane length for newly created planes *)
  mutable iter : int;
  mutable max_iter : int;
}

let create () =
  let width = 64 in
  let r = Array.make width 0 and w = Array.make width 0 in
  {
    reads = [| r |];
    writes = [| w |];
    cur_reads = r;
    cur_writes = w;
    width;
    iter = 0;
    max_iter = 0;
  }

let grow_outer a n =
  let a' = Array.make n [||] in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let set_iteration t i =
  if i < 0 then invalid_arg "Counters.set_iteration: negative iteration";
  let n = Array.length t.reads in
  if i >= n then begin
    let n' = Stdlib.max (i + 1) (2 * n) in
    t.reads <- grow_outer t.reads n';
    t.writes <- grow_outer t.writes n'
  end;
  if Array.length t.reads.(i) = 0 then begin
    t.reads.(i) <- Array.make t.width 0;
    t.writes.(i) <- Array.make t.width 0
  end;
  t.iter <- i;
  t.cur_reads <- t.reads.(i);
  t.cur_writes <- t.writes.(i);
  if i > t.max_iter then t.max_iter <- i

let iteration t = t.iter

let widen plane width =
  let p = Array.make width 0 in
  Array.blit plane 0 p 0 (Array.length plane);
  p

(* Slow path: negative-id rejection, then growth of the current planes
   (and of the width later planes are created with) to cover [obj_id]. *)
let add_slow t obj_id op n =
  if obj_id < 0 then invalid_arg "Counters: negative object id";
  if obj_id >= t.width then begin
    let w = ref (2 * t.width) in
    while obj_id >= !w do
      w := 2 * !w
    done;
    t.width <- !w
  end;
  if obj_id >= Array.length t.cur_reads then begin
    t.cur_reads <- widen t.cur_reads t.width;
    t.cur_writes <- widen t.cur_writes t.width;
    t.reads.(t.iter) <- t.cur_reads;
    t.writes.(t.iter) <- t.cur_writes
  end;
  let plane =
    match op with Access.Read -> t.cur_reads | Access.Write -> t.cur_writes
  in
  plane.(obj_id) <- plane.(obj_id) + n

(* The per-reference hot path (one call per emitted access). *)
let[@inline] record t ~obj_id ~op =
  let plane =
    match op with Access.Read -> t.cur_reads | Access.Write -> t.cur_writes
  in
  if obj_id >= 0 && obj_id < Array.length plane then
    Array.unsafe_set plane obj_id (Array.unsafe_get plane obj_id + 1)
  else add_slow t obj_id op 1

let record_n t ~obj_id ~op ~n =
  if n < 0 then invalid_arg "Counters.record_n: negative count";
  if n > 0 then begin
    let plane =
      match op with Access.Read -> t.cur_reads | Access.Write -> t.cur_writes
    in
    if obj_id >= 0 && obj_id < Array.length plane then
      plane.(obj_id) <- plane.(obj_id) + n
    else add_slow t obj_id op n
  end

let count_in planes ~obj_id ~iter =
  if iter < 0 || iter >= Array.length planes then 0
  else begin
    let p = planes.(iter) in
    if obj_id >= 0 && obj_id < Array.length p then p.(obj_id) else 0
  end

let reads t ~obj_id ~iter = count_in t.reads ~obj_id ~iter
let writes t ~obj_id ~iter = count_in t.writes ~obj_id ~iter

let sum_over_iterations planes ~obj_id =
  let s = ref 0 in
  for iter = 0 to Array.length planes - 1 do
    s := !s + count_in planes ~obj_id ~iter
  done;
  !s

let total_reads t ~obj_id = sum_over_iterations t.reads ~obj_id
let total_writes t ~obj_id = sum_over_iterations t.writes ~obj_id

let sum_plane planes ~iter =
  if iter < 0 || iter >= Array.length planes then 0
  else Array.fold_left ( + ) 0 planes.(iter)

let iteration_reads t ~iter = sum_plane t.reads ~iter
let iteration_writes t ~iter = sum_plane t.writes ~iter

let grand_total t =
  let s = ref 0 in
  for iter = 0 to Array.length t.reads - 1 do
    s := !s + sum_plane t.reads ~iter + sum_plane t.writes ~iter
  done;
  !s

let touched t ~obj_id ~iter =
  reads t ~obj_id ~iter > 0 || writes t ~obj_id ~iter > 0

let iterations_touched t ~obj_id =
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) (if touched t ~obj_id ~iter:i then i :: acc else acc)
  in
  build (Array.length t.reads - 1) []

let touched_in_main_loop t ~obj_id =
  let n = Array.length t.reads in
  let rec scan i = i < n && (touched t ~obj_id ~iter:i || scan (i + 1)) in
  scan 1

let max_iteration t = t.max_iter

let tracked_objects t =
  let width =
    Array.fold_left (fun m p -> Stdlib.max m (Array.length p)) 0 t.reads
  in
  let rec build id acc =
    if id < 0 then acc
    else
      build (id - 1)
        (if total_reads t ~obj_id:id > 0 || total_writes t ~obj_id:id > 0 then
           id :: acc
         else acc)
  in
  build (width - 1) []
