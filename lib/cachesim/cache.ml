(* Allocation-free lookup kernels: the effect of an access is an encoded
   immediate int (no record, no options), set indexing is mask/shift for
   power-of-two set counts (with a guarded div/mod path otherwise), the way
   search probes the per-set MRU way first, recency is an intrusive per-set
   doubly-linked list so victim selection is O(1) (list tail) instead of a
   timestamp scan, and one probe of the set's most recently used way
   answers most hits ([mru_hit]).  Differential tests against
   test/oracle/ pin the behaviour to the original straightforward
   implementation. *)

module Effect = struct
  (* bit 0: hit; bit 1: fill (of the accessed line); bit 2: forwarded
     write (of the accessed line); bit 3: dirty victim write-back, with
     the victim line number in bits 4+.  Line numbers are addr / 64 at
     minimum, so the 4-bit header never overflows a 63-bit int for any
     reachable address space. *)
  type t = int

  let hit e = e land 1 <> 0
  let fills e = e land 2 <> 0
  let forwards_write e = e land 4 <> 0
  let has_writeback e = e land 8 <> 0
  let writeback_line e = e lsr 4
end

let e_hit = 1
let e_fill = 2
let e_forward = 4
let[@inline] e_fill_wb victim = 2 lor 8 lor (victim lsl 4)

type t = {
  p : Cache_params.t;
  nsets : int;
  assoc : int;
  set_mask : int; (* nsets - 1 when nsets is a power of two, else -1 *)
  tag_shift : int; (* log2 nsets when the mask path is active *)
  write_allocate : bool;
  tags : int array; (* -1 = invalid; indexed set*assoc + way *)
  dirty : bool array;
  (* Per-set recency as an intrusive *circular* doubly-linked list over
     the ways: [mru.(set)] is the head (most recently touched way), the
     tail — the victim when every way is valid — is [lprev.(head)], and
     [lnext]/[lprev] chain absolute way indices within the set.
     Equivalent to distinct-timestamp LRU: every operation that refreshes
     recency moves exactly one way to the head, so list order is exactly
     decreasing-timestamp order.  The circle makes the streaming-miss
     steady state O(1) stores: promoting the tail is a pure rotation
     (move the head pointer back one), no links change. *)
  lnext : int array;
  lprev : int array;
  mru : int array; (* per set: head of the recency list *)
  (* Ways become valid only through [allocate_at] at the first invalid
     way and are never invalidated individually, so each set's valid ways
     are a prefix of its index range: [vcnt.(set)] valid ways occupy
     [set*assoc, set*assoc+vcnt).  The way search scans just that prefix
     and the first-invalid victim is [base + vcnt] — no scan tracks
     invalid slots. *)
  vcnt : int array;
  (* Monotone per-set upper bound on every tag ever installed there
     (never lowered on eviction, so always ≥ every resident tag).  A
     probe with [tag > maxtag.(set)] is definitely absent and skips the
     way scan — the steady state of a streaming sweep, whose fresh lines
     carry ever-larger tags. *)
  maxtag : int array;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable evictions : int;
  mutable dirty_evictions : int;
}

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

(* Creation-order circle: within each set the ways chain in index order,
   head = first way (so tail = last).  Victim order over an all-invalid
   set is decided by the prefix fill, not the list, so any initial order
   works; index order keeps it readable. *)
let reset_recency ~nsets ~assoc lnext lprev mru =
  for s = 0 to nsets - 1 do
    let base = s * assoc in
    let last = base + assoc - 1 in
    for i = base to last do
      lnext.(i) <- (if i = last then base else i + 1);
      lprev.(i) <- (if i = base then last else i - 1)
    done;
    mru.(s) <- base
  done

let create p =
  let nsets = Cache_params.sets p in
  let assoc = p.Cache_params.associativity in
  let n = nsets * assoc in
  let pow2 = nsets land (nsets - 1) = 0 in
  let lnext = Array.make n (-1) and lprev = Array.make n (-1) in
  let mru = Array.make nsets 0 in
  reset_recency ~nsets ~assoc lnext lprev mru;
  {
    p;
    nsets;
    assoc;
    set_mask = (if pow2 then nsets - 1 else -1);
    tag_shift = (if pow2 then log2 nsets else 0);
    write_allocate = (p.Cache_params.write_miss = Cache_params.Write_allocate);
    tags = Array.make n (-1);
    dirty = Array.make n false;
    lnext;
    lprev;
    mru;
    vcnt = Array.make nsets 0;
    maxtag = Array.make nsets (-1);
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
    evictions = 0;
    dirty_evictions = 0;
  }

let params t = t.p

let[@inline] set_of t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets

let[@inline] tag_of t line =
  if t.set_mask >= 0 then line lsr t.tag_shift else line / t.nsets

let[@inline] line_of t set tag =
  if t.set_mask >= 0 then (tag lsl t.tag_shift) lor set else (tag * t.nsets) + set

(* The scans are toplevel functions taking their environment as arguments:
   a local [let rec] capturing variables compiles to a heap-allocated
   closure without flambda, which would put an allocation on the miss
   path.  As toplevel tail-recursive functions they run closure-free. *)
(* The explicit [int array]/[int] annotations matter: without them these
   generalize to polymorphic functions whose [=]/[<] compile to C calls
   ([caml_equal]/[caml_lessthan]) with generic array accesses — an order
   of magnitude slower than immediate compares. *)
let rec scan_way (tags : int array) (tag : int) last i =
  if i > last then -1
  else if Array.unsafe_get tags i = tag then i
  else scan_way tags tag last (i + 1)

(* Way search: probe the set's MRU way first (sweeps and stack churn hit
   it), then scan the remaining ways.  Returns an absolute index, -1 when
   absent.  All indices are in [set*assoc, (set+1)*assoc) by construction,
   so the loads are unchecked. *)
let[@inline] find_way t set tag =
  let tags = t.tags in
  let m = Array.unsafe_get t.mru set in
  if Array.unsafe_get tags m = tag then m
  else begin
    let base = set * t.assoc in
    scan_way tags tag (base + t.assoc - 1) base
  end

(* Find-only way scan over the valid prefix, unrolled four ways: no
   invalid-slot tracking (the prefix invariant supplies the first-invalid
   victim as [base + vcnt]), which halves the per-way work of the old
   combined scan.  Returns the matching index or -1. *)
let rec scan_find (tags : int array) (tag : int) last i =
  if i + 3 <= last then begin
    let a = Array.unsafe_get tags i
    and b = Array.unsafe_get tags (i + 1)
    and c = Array.unsafe_get tags (i + 2)
    and d = Array.unsafe_get tags (i + 3) in
    if a = tag then i
    else if b = tag then i + 1
    else if c = tag then i + 2
    else if d = tag then i + 3
    else scan_find tags tag last (i + 4)
  end
  else scan_find_tail tags tag last i

and scan_find_tail (tags : int array) (tag : int) last i =
  if i > last then -1
  else if Array.unsafe_get tags i = tag then i
  else scan_find_tail tags tag last (i + 1)

(* Way search and victim selection in one call, after [mru_hit] missed
   (the scan may see the MRU way again).  Returns [2*idx+1] when
   [tag] is resident at [idx], else [2*victim] with [victim] the first
   invalid way (prefix fill) or, in a fully valid set, the
   least-recently-touched way — the circular list's tail, [lprev(head)].

   Tail/timestamp equivalence: in the timestamp model every touch
   assigned a fresh strictly-increasing clock, so among a fully valid
   set's ways the ages were distinct and the minimum-age way was the one
   touched longest ago — exactly the list tail.  Partially valid sets
   never consulted ages (first-invalid preference), so the list replaces
   the age scan without changing any victim choice; the differential
   oracle suite pins this. *)
let[@inline] find_or_victim t set tag =
  let base = set * t.assoc in
  let c = Array.unsafe_get t.vcnt set in
  let i =
    if tag > Array.unsafe_get t.maxtag set then -1
    else scan_find t.tags tag (base + c - 1) base
  in
  if i >= 0 then (i lsl 1) lor 1
  else if c < t.assoc then (base + c) lsl 1
  else Array.unsafe_get t.lprev (Array.unsafe_get t.mru set) lsl 1

(* Move way [idx] to the head of its set's recency circle (the touch).
   Re-touching the head is free; promoting the tail is a pure rotation
   (the circle's order is unchanged, only the head pointer moves) — the
   steady state of a streaming miss, where the evicted tail becomes the
   newest line.  Only a mid-list promotion relinks. *)
let[@inline] promote t set idx =
  let h = Array.unsafe_get t.mru set in
  if h <> idx then begin
    let nx = Array.unsafe_get t.lnext idx in
    if nx <> h then begin
      let p = Array.unsafe_get t.lprev idx in
      let tl = Array.unsafe_get t.lprev h in
      Array.unsafe_set t.lnext p nx;
      Array.unsafe_set t.lprev nx p;
      Array.unsafe_set t.lnext tl idx;
      Array.unsafe_set t.lprev idx tl;
      Array.unsafe_set t.lnext idx h;
      Array.unsafe_set t.lprev h idx
    end;
    Array.unsafe_set t.mru set idx
  end

(* Install [line] at [idx] (the fused scan's victim). *)
let[@inline] allocate_at t idx set tag ~make_dirty =
  let victim_tag = Array.unsafe_get t.tags idx in
  let e =
    if victim_tag <> -1 then begin
      t.evictions <- t.evictions + 1;
      if Array.unsafe_get t.dirty idx then begin
        t.dirty_evictions <- t.dirty_evictions + 1;
        e_fill_wb (line_of t set victim_tag)
      end
      else e_fill
    end
    else begin
      (* filling the first invalid way extends the set's valid prefix *)
      Array.unsafe_set t.vcnt set (Array.unsafe_get t.vcnt set + 1);
      e_fill
    end
  in
  Array.unsafe_set t.tags idx tag;
  Array.unsafe_set t.dirty idx make_dirty;
  if tag > Array.unsafe_get t.maxtag set then Array.unsafe_set t.maxtag set tag;
  promote t set idx;
  e

(* The one hit test.  A line in its set's most recently used way is a
   hit that moves nothing: the way already heads its recency list.  An
   invalid way holds tag -1, which no line's tag equals. *)
let[@inline] hit_mru_way t set tag ~write =
  let m = Array.unsafe_get t.mru set in
  Array.unsafe_get t.tags m = tag
  &&
  (if write then begin
     t.write_hits <- t.write_hits + 1;
     Array.unsafe_set t.dirty m true
   end
   else t.read_hits <- t.read_hits + 1;
   true)

(* A negative line never hits: the mod path would index outside the
   sets. *)
let[@inline] mru_hit t ~line ~write =
  line >= 0 && hit_mru_way t (set_of t line) (tag_of t line) ~write

(* [read] and [write] past the MRU way: a hit in another way, or a
   miss. *)
let read_other t set tag =
  let r = find_or_victim t set tag in
  let idx = r lsr 1 in
  if r land 1 <> 0 then begin
    t.read_hits <- t.read_hits + 1;
    promote t set idx;
    e_hit
  end
  else begin
    t.read_misses <- t.read_misses + 1;
    allocate_at t idx set tag ~make_dirty:false
  end

let write_other t set tag =
  let r = find_or_victim t set tag in
  let idx = r lsr 1 in
  if r land 1 <> 0 then begin
    t.write_hits <- t.write_hits + 1;
    Array.unsafe_set t.dirty idx true;
    promote t set idx;
    e_hit
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    if t.write_allocate then allocate_at t idx set tag ~make_dirty:true
    else (* no-write-allocate: the line stays absent *)
      e_forward
  end

let read t ~line =
  if line < 0 then invalid_arg "Cache.read: negative line";
  let set = set_of t line and tag = tag_of t line in
  if hit_mru_way t set tag ~write:false then e_hit else read_other t set tag

let write t ~line =
  if line < 0 then invalid_arg "Cache.write: negative line";
  let set = set_of t line and tag = tag_of t line in
  if hit_mru_way t set tag ~write:true then e_hit else write_other t set tag

let probe t ~line =
  line >= 0 && find_way t (set_of t line) (tag_of t line) >= 0

let is_dirty t ~line =
  if line < 0 then false
  else begin
    let idx = find_way t (set_of t line) (tag_of t line) in
    idx >= 0 && Array.unsafe_get t.dirty idx
  end

let flush_dirty t f =
  for set = 0 to t.nsets - 1 do
    let base = set * t.assoc in
    for w = 0 to t.assoc - 1 do
      let idx = base + w in
      if t.tags.(idx) <> -1 && t.dirty.(idx) then begin
        f (line_of t set t.tags.(idx));
        t.dirty.(idx) <- false
      end
    done
  done

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.vcnt 0 t.nsets 0;
  Array.fill t.maxtag 0 t.nsets (-1);
  reset_recency ~nsets:t.nsets ~assoc:t.assoc t.lnext t.lprev t.mru

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag <> -1 then acc + 1 else acc) 0 t.tags

let hits t = t.read_hits + t.write_hits
let misses t = t.read_misses + t.write_misses
let read_hits t = t.read_hits
let read_misses t = t.read_misses
let write_hits t = t.write_hits
let write_misses t = t.write_misses
let evictions t = t.evictions
let dirty_evictions t = t.dirty_evictions

let miss_rate t =
  let total = hits t + misses t in
  if total = 0 then 0. else float_of_int (misses t) /. float_of_int total

let reset_stats t =
  t.read_hits <- 0;
  t.read_misses <- 0;
  t.write_hits <- 0;
  t.write_misses <- 0;
  t.evictions <- 0;
  t.dirty_evictions <- 0
