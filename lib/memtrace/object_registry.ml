type t = {
  mutable bits : int; (* log2 bucket width *)
  mutable buckets : (int, Mem_object.t list ref) Hashtbl.t;
  by_signature : (string, Mem_object.t) Hashtbl.t;
  mutable all : Mem_object.t list; (* reversed registration order *)
  mutable count : int;
  max_bucket_len : int; (* rebalance trigger *)
  min_bits : int;
}

let create ?(bucket_bits = 16) () =
  {
    bits = bucket_bits;
    buckets = Hashtbl.create 1024;
    by_signature = Hashtbl.create 256;
    all = [];
    count = 0;
    max_bucket_len = 64;
    min_bits = 6; (* never narrower than a cache line *)
  }

let bucket_range t (obj : Mem_object.t) =
  (obj.base asr t.bits, Mem_object.last_byte obj asr t.bits)

let index_object t obj =
  let lo, hi = bucket_range t obj in
  for b = lo to hi do
    match Hashtbl.find_opt t.buckets b with
    | Some l -> l := obj :: !l
    | None -> Hashtbl.add t.buckets b (ref [ obj ])
  done

let unindex_object t (obj : Mem_object.t) =
  let lo, hi = bucket_range t obj in
  for b = lo to hi do
    match Hashtbl.find_opt t.buckets b with
    | Some l -> l := List.filter (fun (o : Mem_object.t) -> o.id <> obj.id) !l
    | None -> ()
  done

let longest_bucket t =
  Hashtbl.fold (fun _ l acc -> Stdlib.max acc (List.length !l)) t.buckets 0

(* Rebuild the index with narrower buckets when objects cluster: the
   paper's "dynamically divide the memory address space" scheme. *)
let rebalance t =
  if t.bits > t.min_bits && longest_bucket t > t.max_bucket_len then begin
    t.bits <- Stdlib.max t.min_bits (t.bits - 4);
    t.buckets <- Hashtbl.create (2 * Hashtbl.length t.buckets);
    List.iter (fun obj -> index_object t obj) t.all
  end

let register t obj =
  match obj.Mem_object.kind with
  | Layout.Heap | Layout.Stack ->
    index_object t obj;
    Hashtbl.replace t.by_signature obj.signature obj;
    t.all <- obj :: t.all;
    t.count <- t.count + 1;
    rebalance t;
    obj
  | Layout.Global ->
    (* Collect already-registered globals overlapping the new range and
       fold them all into one union object. *)
    let overlapping =
      List.filter
        (fun (o : Mem_object.t) ->
          o.kind = Layout.Global
          && Mem_object.overlaps o ~base:obj.base ~size:obj.size)
        t.all
    in
    if overlapping = [] then begin
      index_object t obj;
      Hashtbl.replace t.by_signature obj.signature obj;
      t.all <- obj :: t.all;
      t.count <- t.count + 1;
      rebalance t;
      obj
    end
    else begin
      let merged =
        List.fold_left
          (fun acc o -> Mem_object.merge_overlapping acc o ~id:acc.Mem_object.id)
          obj overlapping
      in
      List.iter
        (fun (o : Mem_object.t) ->
          unindex_object t o;
          Hashtbl.remove t.by_signature o.signature)
        overlapping;
      t.all <-
        merged
        :: List.filter
             (fun (o : Mem_object.t) ->
               not (List.exists (fun (p : Mem_object.t) -> p.id = o.id) overlapping))
             t.all;
      t.count <- t.count - List.length overlapping + 1;
      index_object t merged;
      Hashtbl.replace t.by_signature merged.signature merged;
      rebalance t;
      merged
    end

let find_by_signature t signature = Hashtbl.find_opt t.by_signature signature

let deallocate _t obj = obj.Mem_object.live <- false
let revive _t obj = obj.Mem_object.live <- true

let lookup t addr =
  match Hashtbl.find_opt t.buckets (addr asr t.bits) with
  | None -> None
  | Some l ->
    (* Prefer a live object; fall back to a dead one sharing the address. *)
    let rec scan live_hit dead_hit = function
      | [] -> (live_hit, dead_hit)
      | (o : Mem_object.t) :: rest ->
        if Mem_object.contains o addr then
          if o.live then (Some o, dead_hit)
          else scan live_hit (match dead_hit with None -> Some o | s -> s) rest
        else scan live_hit dead_hit rest
    in
    let live_hit, dead_hit = scan None None !l in
    (match live_hit with Some _ -> live_hit | None -> dead_hit)

let objects t = List.rev t.all
let object_count t = t.count
let bucket_bits t = t.bits
