module Access = Nvsc_memtrace.Access
module Layout = Nvsc_memtrace.Layout
module Mem_object = Nvsc_memtrace.Mem_object
module Object_registry = Nvsc_memtrace.Object_registry
module Shadow_stack = Nvsc_memtrace.Shadow_stack
module Counters = Nvsc_memtrace.Counters
module Sink = Nvsc_memtrace.Sink
module Persist_ev = Nvsc_memtrace.Persist
module Rng = Nvsc_util.Rng

type fast_tally = {
  stack_reads : int;
  stack_writes : int;
  other_reads : int;
  other_writes : int;
}

let zero_tally =
  { stack_reads = 0; stack_writes = 0; other_reads = 0; other_writes = 0 }

(* [addr] in the stack window: the region test of the fast stack method. *)
let[@inline] in_stack_window addr =
  addr > Layout.stack_limit && addr <= Layout.stack_top

module Tally = struct
  (* Region tallies of the unattributed references only: four counts per
     iteration (stack reads, stack writes, other reads, other writes) in
     one flat array.  Attributed references are tallied by the counters:
     a stack-window address only ever attributes to a routine object and
     a heap or global address only to a registry object, so the fast
     tallies are derived exactly from the counters plus these. *)
  type t = { mutable counts : int array; mutable unattributed : int }

  let create () = { counts = Array.make 16 0; unattributed = 0 }
  let unattributed t = t.unattributed

  let get t ~iter k =
    let i = (4 * iter) + k in
    if iter < 0 || i >= Array.length t.counts then 0 else t.counts.(i)

  let add_unattributed t counters ~addr ~op =
    let i =
      (4 * Counters.iteration counters)
      + (if in_stack_window addr then 0 else 2)
      + (match op with Access.Read -> 0 | Access.Write -> 1)
    in
    let n = Array.length t.counts in
    if i >= n then begin
      let c = Array.make (Stdlib.max (2 * n) (i + 4)) 0 in
      Array.blit t.counts 0 c 0 n;
      t.counts <- c
    end;
    t.counts.(i) <- t.counts.(i) + 1;
    t.unattributed <- t.unattributed + 1

  let[@inline] account t counters ~addr ~obj_id ~op =
    if obj_id >= 0 then Counters.record counters ~obj_id ~op
    else add_unattributed t counters ~addr ~op

  let fast_tally t counters ~stack_ids ~iter =
    if iter < 0 then zero_tally
    else begin
      let sr, sw =
        List.fold_left
          (fun (r, w) obj_id ->
            ( r + Counters.reads counters ~obj_id ~iter,
              w + Counters.writes counters ~obj_id ~iter ))
          (0, 0) stack_ids
      in
      {
        stack_reads = sr + get t ~iter 0;
        stack_writes = sw + get t ~iter 1;
        other_reads =
          Counters.iteration_reads counters ~iter - sr + get t ~iter 2;
        other_writes =
          Counters.iteration_writes counters ~iter - sw + get t ~iter 3;
      }
    end
end

type frame = {
  routine : string;
  shadow_frame : Shadow_stack.frame;
  mutable cursor : int; (* next free address, carving downward usage upward *)
  limit : int;
}

(* One subscriber to the stream [observe] offers: the callbacks of
   [Trace_codec.stream], minus [on_chunk]. *)
type observer = {
  on_objects : (Mem_object.t list -> unit) option;
  on_phase : (Mem_object.phase -> unit) option;
  on_instr : (int -> unit) option;
  on_persist : (Persist_ev.t -> unit) option;
  on_refs : Nvsc_memtrace.Trace_codec.on_refs;
}

type event =
  | Frame_push of Shadow_stack.frame
  | Frame_pop of Shadow_stack.frame

type t = {
  rng : Rng.t;
  registry : Object_registry.t;
  counters : Counters.t;
  tally : Tally.t;
  shadow : Shadow_stack.t;
  mutable sinks : Sink.t array;
  mutable observers : observer array;
  (* shadow-stack observers (NVSC-San): a trace does not record the frame
     structure, so it is not part of the observed stream *)
  mutable frame_hooks : (event -> unit) array;
  (* true iff a frame hook is installed or some observer takes objects or
     persist actions.  Then the emission batch is flushed *before* every
     registry/shadow-stack mutation and persist action, so observers
     always see a reference under the same object/stack state it was
     emitted in — making their view independent of batch capacity. *)
  mutable ordered : bool;
  (* true iff some consumer reads the emission batch (any sink or
     observer).  When false — [analyze] and every other run without a
     trace — [emit_observed] skips every per-reference buffer store and
     only keeps the flush accounting. *)
  mutable recording : bool;
  (* true iff some observer is subscribed: only observers read [obj_ids]
     and [instr_before], and only they make {!flops} count.  When false —
     [run], whose only consumer is the cache-hierarchy sink — emission
     stores the address and op and nothing else. *)
  mutable attributing : bool;
  redzone_bytes : int; (* unregistered gap after each allocation *)
  (* the emission batch: references accumulate here and flush to the sinks
     when the batch fills or at a phase boundary (paper §III-D).  The
     parallel [obj_ids] array carries emission-time attribution (-1 =
     unattributed) for observers; [instr_before.(i)] counts plain
     instructions committed since reference [i-1], so instruction counts
     can be interleaved back in program order at flush time.  Mutable so
     [release] can hand the ~2 MB of buffers to the per-domain pool and
     swap in one-slot stand-ins. *)
  mutable batch : Sink.Batch.t;
  mutable obj_ids : int array;
  mutable instr_before : int array;
  mutable batch_capacity : int;
  mutable batch_len : int;
  mutable pending_instr : int;
  mutable batches_out : int;
  mutable capacity_flushes : int;
  mutable boundary_flushes : int;
  mutable phase : Mem_object.phase;
  mutable heap_brk : int;
  mutable global_brk : int;
  mutable next_id : int;
  mutable next_routine_addr : int;
  routine_addrs : (string, int) Hashtbl.t;
  routine_objects : (int, Mem_object.t) Hashtbl.t; (* keyed by routine addr *)
  (* The emission memos carry object ids (-1 = no object), not [t option]:
     the hot path only needs the id for [Counters.record] and the
     [obj_ids] array, and an immediate int spares the option match. *)
  (* one-entry memo for stack attribution: routine objects are registered
     once and never replaced, so the memo can never go stale *)
  mutable memo_routine_addr : int;
  mutable memo_routine_id : int;
  (* one-entry [call] memo, keyed by physical equality of the routine
     name: call sites pass literal names, so the per-particle/per-cell
     routine entries skip the string-hash lookup and the object table.
     The cached pair never goes stale for the same string value. *)
  mutable memo_call_routine : string;
  mutable memo_call_addr : int;
  (* four-entry memo for heap/global attribution: slot [k] caches the
     range and id of a recently attributed object ([lo > hi] = empty).
     Four slots because inner loops commonly cycle through a handful of
     arrays (gather / stage / scatter targets), which thrashes a
     single-entry memo on every reference.  The last-hit slot is probed
     first; replacement is round-robin.  Invalidated on every registry
     mutation (allocation, free, global merge), so a hit can never be
     stale. *)
  memo_obj_lo : int array;
  memo_obj_hi : int array;
  memo_obj_ids : int array;
  mutable memo_obj_last : int;
  mutable memo_obj_rr : int;
  (* one-entry memo for the stack-frame walk: valid only while the shadow
     stack's stamp is unchanged (no push/pop), so a hit sees the same live
     frames the walk would. *)
  mutable memo_frame_stamp : int;
  mutable memo_frame_lo : int;
  mutable memo_frame_hi : int; (* exclusive *)
  mutable memo_frame_id : int;
  heap_instances : (string, int) Hashtbl.t; (* live-collision counters *)
  mutable total_refs : int;
  mutable sampling : sampling option;
  mutable sampled_out : int;
}

and sampling = { period : int; sample_length : int; mutable position : int }

(* --- emission-buffer pool ---------------------------------------------- *)

(* A context's emission buffers (batch + obj_ids + instr_before) total
   ~2 MB at the default capacity: allocating them afresh dominates
   [create] (major-heap allocation and the GC work it triggers).  Freed
   buffer sets park on a small per-domain free list instead — per domain
   (Domain.DLS) because sweep workers create contexts concurrently and a
   domain-local list needs no locking. *)
type buffers = {
  b_batch : Sink.Batch.t;
  b_obj_ids : int array;
  b_instr_before : int array;
}

let pool_max = 4

let pool_key : buffers list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let acquire_buffers capacity =
  let pool = Domain.DLS.get pool_key in
  match !pool with
  | b :: rest when Array.length b.b_obj_ids = capacity ->
    pool := rest;
    b
  | _ ->
    {
      b_batch = Sink.Batch.create capacity;
      b_obj_ids = Array.make capacity (-1);
      b_instr_before = Array.make capacity 0;
    }

let create ?(seed = 42) ?(batch_capacity = Sink.default_capacity)
    ?(redzone_words = 0) () =
  if batch_capacity <= 0 then invalid_arg "Ctx.create: batch_capacity";
  if redzone_words < 0 then invalid_arg "Ctx.create: redzone_words";
  let bufs = acquire_buffers batch_capacity in
  let batch = bufs.b_batch in
  (* the context only emits word-sized references: prefill once (a pooled
     batch may have been resized by a foreign consumer) *)
  Sink.Batch.fill_sizes batch Layout.word;
  {
    rng = Rng.of_int seed;
    registry = Object_registry.create ();
    counters = Counters.create ();
    tally = Tally.create ();
    shadow = Shadow_stack.create ();
    sinks = [||];
    observers = [||];
    frame_hooks = [||];
    ordered = false;
    recording = false;
    attributing = false;
    redzone_bytes = redzone_words * Layout.word;
    batch;
    obj_ids = bufs.b_obj_ids;
    instr_before = bufs.b_instr_before;
    batch_capacity;
    batch_len = 0;
    pending_instr = 0;
    batches_out = 0;
    capacity_flushes = 0;
    boundary_flushes = 0;
    phase = Mem_object.Pre;
    heap_brk = Layout.heap_base;
    global_brk = Layout.global_base;
    next_id = 0;
    next_routine_addr = 0x0040_0000;
    routine_addrs = Hashtbl.create 64;
    routine_objects = Hashtbl.create 64;
    memo_routine_addr = min_int;
    memo_routine_id = -1;
    (* a fresh string: physically equal to no caller-supplied name *)
    memo_call_routine = String.init 1 (fun _ -> '\000');
    memo_call_addr = 0;
    memo_obj_lo = Array.make 4 1;
    memo_obj_hi = Array.make 4 0;
    memo_obj_ids = Array.make 4 (-1);
    memo_obj_last = 0;
    memo_obj_rr = 0;
    memo_frame_stamp = -1;
    memo_frame_lo = 1;
    memo_frame_hi = 0;
    memo_frame_id = -1;
    heap_instances = Hashtbl.create 64;
    total_refs = 0;
    sampling = None;
    sampled_out = 0;
  }

let set_sampling t ~period ~sample_length =
  if period <= 0 || sample_length <= 0 || sample_length > period then
    invalid_arg "Ctx.set_sampling: need 0 < sample_length <= period";
  t.sampling <- Some { period; sample_length; position = 0 }

let sampled_out t = t.sampled_out

(* --- batched delivery --------------------------------------------------- *)

(* One observer's share of a flush: the slice, split at instruction
   positions with each count delivered in between when the observer takes
   [on_instr] (the codec's rule), then the boundary instruction tail. *)
let deliver_observer t o n ~instr_tail =
  match o.on_instr with
  | None -> if n > 0 then o.on_refs t.batch ~obj_ids:t.obj_ids ~first:0 ~n
  | Some on_instr ->
    let seg = ref 0 in
    for i = 0 to n - 1 do
      let k = t.instr_before.(i) in
      if k > 0 then begin
        if i > !seg then
          o.on_refs t.batch ~obj_ids:t.obj_ids ~first:!seg ~n:(i - !seg);
        on_instr k;
        seg := i
      end
    done;
    if n > !seg then
      o.on_refs t.batch ~obj_ids:t.obj_ids ~first:!seg ~n:(n - !seg);
    if instr_tail > 0 then on_instr instr_tail

let flush_batch t ~boundary =
  let n = t.batch_len in
  (* a boundary flush also delivers the instruction tail committed after
     the last buffered reference *)
  let instr_tail = if boundary then t.pending_instr else 0 in
  if n > 0 then begin
    t.batch_len <- 0;
    t.batches_out <- t.batches_out + 1;
    if boundary then t.boundary_flushes <- t.boundary_flushes + 1
    else t.capacity_flushes <- t.capacity_flushes + 1;
    Array.iter (fun s -> Sink.deliver s t.batch ~first:0 ~n) t.sinks
  end;
  if n > 0 || instr_tail > 0 then
    Array.iter (fun o -> deliver_observer t o n ~instr_tail) t.observers;
  if instr_tail > 0 then t.pending_instr <- 0

let flush_refs t = flush_batch t ~boundary:true

let recompute_flags t =
  t.ordered <-
    Array.length t.frame_hooks > 0
    || Array.exists
         (fun o -> o.on_objects <> None || o.on_persist <> None)
         t.observers;
  t.attributing <- Array.length t.observers > 0;
  t.recording <- t.attributing || Array.length t.sinks > 0

(* Subscription flushes buffered references first: references emitted
   before the subscription are delivered to the previously-subscribed
   consumers only, so the emission loop can skip the buffer stores
   entirely while nobody is subscribed. *)
let add_sink t sink =
  flush_refs t;
  t.sinks <- Array.append t.sinks [| sink |];
  recompute_flags t

let observe t ?on_objects ?on_phase ?on_instr ?on_persist ~on_refs () =
  flush_refs t;
  t.observers <-
    Array.append t.observers
      [| { on_objects; on_phase; on_instr; on_persist; on_refs } |];
  recompute_flags t

let add_frame_hook t f =
  flush_refs t;
  t.frame_hooks <- Array.append t.frame_hooks [| f |];
  recompute_flags t

let redzone_bytes t = t.redzone_bytes

(* Flush buffered references before a registry/stack mutation or a persist
   action when someone observes it: the buffered refs were emitted under
   the pre-mutation state and must be delivered under it. *)
let pre_mutate t = if t.ordered then flush_batch t ~boundary:true

let notify_frame t ev = Array.iter (fun f -> f ev) t.frame_hooks

let notify_object t obj =
  Array.iter
    (fun o -> match o.on_objects with Some f -> f [ obj ] | None -> ())
    t.observers

let clear_sinks t =
  flush_refs t;
  t.sinks <- [||];
  t.observers <- [||];
  t.frame_hooks <- [||];
  recompute_flags t

let release t =
  flush_refs t;
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < pool_max then
    pool :=
      {
        b_batch = t.batch;
        b_obj_ids = t.obj_ids;
        b_instr_before = t.instr_before;
      }
      :: !pool;
  (* the context stays usable, just with single-slot buffers (every
     emission flushes immediately) *)
  let batch = Sink.Batch.create 1 in
  Sink.Batch.fill_sizes batch Layout.word;
  t.batch <- batch;
  t.obj_ids <- Array.make 1 (-1);
  t.instr_before <- Array.make 1 0;
  t.batch_capacity <- 1

let iteration_of_phase = function
  | Mem_object.Pre | Mem_object.Post -> 0
  | Mem_object.Main i ->
    if i < 1 then invalid_arg "Ctx: main-loop iterations are 1-based";
    i

let set_phase t phase =
  let iter = iteration_of_phase phase in
  (* flush before the phase changes: buffered references were emitted in
     the old phase and must be seen by phase-sensitive sinks under it *)
  flush_batch t ~boundary:true;
  t.phase <- phase;
  Counters.set_iteration t.counters iter;
  Array.iter
    (fun o -> match o.on_phase with Some f -> f phase | None -> ())
    t.observers

let phase t = t.phase

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let invalidate_obj_memo t =
  Array.fill t.memo_obj_lo 0 4 1;
  Array.fill t.memo_obj_hi 0 4 0;
  Array.fill t.memo_obj_ids 0 4 (-1);
  t.memo_obj_last <- 0;
  t.memo_obj_rr <- 0

(* --- allocation ------------------------------------------------------- *)

let alloc_global t ~name ~words =
  if words <= 0 then invalid_arg "Ctx.alloc_global: words";
  pre_mutate t;
  invalidate_obj_memo t;
  let size = words * Layout.word in
  let base = t.global_brk in
  if base + size > Layout.global_limit then failwith "Ctx: global segment full";
  t.global_brk <- base + size + t.redzone_bytes;
  let obj =
    Mem_object.make ~id:(fresh_id t) ~name ~kind:Layout.Global ~base ~size
      ~alloc_phase:t.phase ()
  in
  let obj = Object_registry.register t.registry obj in
  notify_object t obj;
  obj

let alloc_global_overlay t ~name ~over ~offset_words ~words =
  if words <= 0 || offset_words < 0 then
    invalid_arg "Ctx.alloc_global_overlay: bad range";
  pre_mutate t;
  invalidate_obj_memo t;
  if over.Mem_object.kind <> Layout.Global then
    invalid_arg "Ctx.alloc_global_overlay: base object must be global";
  let base = over.Mem_object.base + (offset_words * Layout.word) in
  let size = words * Layout.word in
  if base + size > over.Mem_object.base + over.Mem_object.size then
    invalid_arg "Ctx.alloc_global_overlay: overlay exceeds the base object";
  let obj =
    Mem_object.make ~id:(fresh_id t) ~name ~kind:Layout.Global ~base ~size
      ~alloc_phase:t.phase ()
  in
  let obj = Object_registry.register t.registry obj in
  notify_object t obj;
  obj

let callstack_names t =
  List.rev_map
    (fun (f : Shadow_stack.frame) -> f.routine)
    (Shadow_stack.frames t.shadow)

let alloc_heap t ~site ~words =
  if words <= 0 then invalid_arg "Ctx.alloc_heap: words";
  pre_mutate t;
  invalidate_obj_memo t;
  let size = words * Layout.word in
  match Object_registry.find_by_signature t.registry site with
  | Some obj when (not obj.Mem_object.live) && obj.Mem_object.size = size ->
    (* Same allocation-site signature, previously freed: the paper treats
       this as the same memory object re-appearing. *)
    Object_registry.revive t.registry obj;
    notify_object t obj;
    obj
  | Some _ ->
    (* A live object already carries this signature: distinguish the
       instance, as two objects genuinely coexist. *)
    let n =
      match Hashtbl.find_opt t.heap_instances site with
      | Some n -> n + 1
      | None -> 1
    in
    Hashtbl.replace t.heap_instances site n;
    let signature = Printf.sprintf "%s#%d" site n in
    let base = t.heap_brk in
    if base + size > Layout.heap_limit then failwith "Ctx: heap full";
    t.heap_brk <- base + size + t.redzone_bytes;
    let obj =
      Mem_object.make ~id:(fresh_id t) ~name:site ~kind:Layout.Heap ~base
        ~size ~signature ~callstack:(callstack_names t)
        ~alloc_phase:t.phase ()
    in
    let obj = Object_registry.register t.registry obj in
    notify_object t obj;
    obj
  | None ->
    let base = t.heap_brk in
    if base + size > Layout.heap_limit then failwith "Ctx: heap full";
    t.heap_brk <- base + size + t.redzone_bytes;
    let obj =
      Mem_object.make ~id:(fresh_id t) ~name:site ~kind:Layout.Heap ~base
        ~size ~signature:site ~callstack:(callstack_names t)
        ~alloc_phase:t.phase ()
    in
    let obj = Object_registry.register t.registry obj in
    notify_object t obj;
    obj

let free_heap t obj =
  if obj.Mem_object.kind <> Layout.Heap then
    invalid_arg "Ctx.free_heap: not a heap object";
  pre_mutate t;
  invalidate_obj_memo t;
  Object_registry.deallocate t.registry obj

(* --- routines --------------------------------------------------------- *)

let routine_addr t routine =
  match Hashtbl.find_opt t.routine_addrs routine with
  | Some a -> a
  | None ->
    let a = t.next_routine_addr in
    t.next_routine_addr <- a + 0x100;
    Hashtbl.add t.routine_addrs routine a;
    a

let call t ~routine ~frame_words f =
  if frame_words < 0 then invalid_arg "Ctx.call: frame_words";
  let memo_hit = routine == t.memo_call_routine in
  let addr = if memo_hit then t.memo_call_addr else routine_addr t routine in
  let frame_size = frame_words * Layout.word in
  pre_mutate t;
  let shadow_frame =
    Shadow_stack.push t.shadow ~routine ~routine_addr:addr ~frame_size
  in
  if not memo_hit then begin
    (* Register the routine's frame object on first entry, keyed by the
       routine starting address (the paper's routine signature). *)
    if not (Hashtbl.mem t.routine_objects addr) then begin
      let base = shadow_frame.Shadow_stack.base_sp - frame_size in
      let obj =
        Mem_object.make ~id:(fresh_id t) ~name:routine ~kind:Layout.Stack
          ~base
          ~size:(Stdlib.max frame_size Layout.word)
          ~signature:(Printf.sprintf "stack:%s@0x%x" routine addr)
          ~alloc_phase:t.phase ()
      in
      Hashtbl.add t.routine_objects addr obj;
      notify_object t obj
    end;
    t.memo_call_routine <- routine;
    t.memo_call_addr <- addr
  end;
  if Array.length t.frame_hooks > 0 then
    notify_frame t (Frame_push shadow_frame);
  let frame =
    {
      routine;
      shadow_frame;
      cursor = shadow_frame.Shadow_stack.base_sp - frame_size;
      limit = shadow_frame.Shadow_stack.base_sp;
    }
  in
  match f frame with
  | r ->
    pre_mutate t;
    Shadow_stack.pop t.shadow;
    if Array.length t.frame_hooks > 0 then
      notify_frame t (Frame_pop shadow_frame);
    r
  | exception e ->
    pre_mutate t;
    Shadow_stack.pop t.shadow;
    if Array.length t.frame_hooks > 0 then
      notify_frame t (Frame_pop shadow_frame);
    raise e

let frame_carve _t frame ~words =
  if words <= 0 then invalid_arg "Ctx.frame_carve: words";
  let size = words * Layout.word in
  if frame.cursor + size > frame.limit then
    invalid_arg
      (Printf.sprintf "Ctx.frame_carve: frame of %s exhausted" frame.routine);
  let base = frame.cursor in
  frame.cursor <- base + size;
  base

let frame_routine frame = frame.routine

(* --- reference emission ----------------------------------------------- *)

let attribute t addr =
  match Layout.classify addr with
  | Some Layout.Stack -> (
    match Shadow_stack.attribute t.shadow addr with
    | Some frame -> Hashtbl.find_opt t.routine_objects frame.routine_addr
    | None -> None)
  | Some (Layout.Heap | Layout.Global) -> Object_registry.lookup t.registry addr
  | None -> None

(* Stack attribution as an object id (-1 = none). *)
let attribute_stack_id t addr =
  if
    t.memo_frame_stamp = Shadow_stack.stamp t.shadow
    && addr >= t.memo_frame_lo
    && addr < t.memo_frame_hi
  then t.memo_frame_id
  else
    match Shadow_stack.attribute t.shadow addr with
    | Some frame ->
      let ra = frame.Shadow_stack.routine_addr in
      let id =
        if ra = t.memo_routine_addr then t.memo_routine_id
        else begin
          let id =
            match Hashtbl.find_opt t.routine_objects ra with
            | Some o -> o.Mem_object.id
            | None -> -1
          in
          t.memo_routine_addr <- ra;
          t.memo_routine_id <- id;
          id
        end
      in
      t.memo_frame_stamp <- Shadow_stack.stamp t.shadow;
      t.memo_frame_lo <- frame.Shadow_stack.base_sp - frame.Shadow_stack.frame_size;
      t.memo_frame_hi <- frame.Shadow_stack.base_sp;
      t.memo_frame_id <- id;
      id
    | None -> -1

(* With sampling enabled, a reference outside the sample window is
   invisible to the whole analysis (attribution, tallies and sinks) — as
   if PIN had not instrumented it. *)
let sampling_drops t =
  match t.sampling with
  | None -> false
  | Some s ->
    let drop = s.position >= s.sample_length in
    s.position <- (s.position + 1) mod s.period;
    if drop then t.sampled_out <- t.sampled_out + 1;
    drop

(* Heap/global attribution through the four-entry memo: last-hit slot
   first, then the remaining three, then the registry (installing the
   answer round-robin).  All indices are in [0, 4) by construction. *)
(* Toplevel recursion (arguments, not captures): a local [let rec] would
   allocate a closure per memo miss on the non-flambda compiler. *)
let rec probe_obj_memo t addr k =
  if k >= 4 then begin
    match Object_registry.lookup t.registry addr with
    | Some o ->
      let id = o.Mem_object.id in
      let slot = t.memo_obj_rr in
      t.memo_obj_rr <- (slot + 1) land 3;
      t.memo_obj_last <- slot;
      Array.unsafe_set t.memo_obj_lo slot o.Mem_object.base;
      Array.unsafe_set t.memo_obj_hi slot (Mem_object.last_byte o);
      Array.unsafe_set t.memo_obj_ids slot id;
      id
    | None -> -1
  end
  else if
    k <> t.memo_obj_last
    && addr >= Array.unsafe_get t.memo_obj_lo k
    && addr <= Array.unsafe_get t.memo_obj_hi k
  then begin
    t.memo_obj_last <- k;
    Array.unsafe_get t.memo_obj_ids k
  end
  else probe_obj_memo t addr (k + 1)

let[@inline] attribute_obj_id t addr =
  let l = t.memo_obj_last in
  if
    addr >= Array.unsafe_get t.memo_obj_lo l
    && addr <= Array.unsafe_get t.memo_obj_hi l
  then Array.unsafe_get t.memo_obj_ids l
  else probe_obj_memo t addr 0

let emit_observed t addr op =
  t.total_refs <- t.total_refs + 1;
  (* Region test inlined as two range checks instead of [Layout.classify]:
     global [global_base, global_limit) and heap [heap_base, heap_limit)
     are contiguous and emission treats them identically, so one compare
     pair covers both. *)
  let obj_id =
    if addr >= Layout.global_base && addr < Layout.heap_limit then
      attribute_obj_id t addr
    else if in_stack_window addr then attribute_stack_id t addr
    else -1
  in
  Tally.account t.tally t.counters ~addr ~obj_id ~op;
  if t.recording then begin
    let i = t.batch_len in
    (* i < batch_capacity = length of all three arrays, by construction *)
    Sink.Batch.set_addr_op t.batch i ~addr ~op;
    if t.attributing then begin
      Array.unsafe_set t.obj_ids i obj_id;
      Array.unsafe_set t.instr_before i t.pending_instr;
      t.pending_instr <- 0
    end;
    t.batch_len <- i + 1;
    if t.batch_len = t.batch_capacity then flush_batch t ~boundary:false
  end
  else begin
    (* nobody reads the buffers: keep only the flush accounting, so the
       pipeline stats are independent of whether consumers are attached *)
    let len = t.batch_len + 1 in
    t.batch_len <- len;
    if len = t.batch_capacity then flush_batch t ~boundary:false
  end

let[@inline] emit t addr op =
  if sampling_drops t then () else emit_observed t addr op

let[@inline] read_addr t ~addr = emit t addr Access.Read
let[@inline] write_addr t ~addr = emit t addr Access.Write

let flops t n =
  if n < 0 then invalid_arg "Ctx.flops: negative";
  if t.attributing then t.pending_instr <- t.pending_instr + n

(* --- persistence (NVSC-Persist) ---------------------------------------- *)

(* Persist primitives are events, not memory references: they never enter
   the emission batch, so annotating an application changes no analysis
   built on the reference stream.  While observed, each one flushes
   buffered references first (pre_mutate), giving observers a strict
   happens-before order between stores and the flush/fence/epoch actions
   that persist them. *)

let persist_event t ev =
  pre_mutate t;
  Array.iter
    (fun o -> match o.on_persist with Some f -> f ev | None -> ())
    t.observers

let persist t obj =
  persist_event t (Persist_ev.Declare { obj_id = obj.Mem_object.id })

let epoch_begin ?(checkpoint = false) t ~label =
  persist_event t (Persist_ev.Epoch_begin { label; checkpoint })

let epoch_commit ?(checkpoint = false) t ~label =
  persist_event t (Persist_ev.Epoch_commit { label; checkpoint })

let persist_epoch ?(checkpoint = false) t ~label f =
  epoch_begin ~checkpoint t ~label;
  (* no commit on exception: the epoch stays open, which is exactly what a
     crash inside it looks like to the checker *)
  let r = f () in
  epoch_commit ~checkpoint t ~label;
  r

let flush t obj ~off ~len =
  if off < 0 || len <= 0 || off + len > obj.Mem_object.size then
    invalid_arg "Ctx.flush: byte range outside the object";
  persist_event t (Persist_ev.Flush { obj_id = obj.Mem_object.id; off; len })

let flush_all t obj = flush t obj ~off:0 ~len:obj.Mem_object.size
let fence t = persist_event t Persist_ev.Fence

(* --- analysis accessors ------------------------------------------------ *)

let registry t = t.registry
let counters t = t.counters
let shadow t = t.shadow
let rng t = t.rng

let stack_object_of_routine t routine =
  match Hashtbl.find_opt t.routine_addrs routine with
  | None -> None
  | Some addr -> Hashtbl.find_opt t.routine_objects addr

let stack_objects t =
  Hashtbl.fold (fun _ obj acc -> obj :: acc) t.routine_objects []
  |> List.sort (fun (a : Mem_object.t) b -> compare a.id b.id)

let attribute_addr = attribute

let stack_ids t =
  Hashtbl.fold
    (fun _ (o : Mem_object.t) acc -> o.id :: acc)
    t.routine_objects []

let fast_tally t ~iter =
  Tally.fast_tally t.tally t.counters ~stack_ids:(stack_ids t) ~iter

let fast_tally_totals t =
  let stack_ids = stack_ids t in
  let acc = ref zero_tally in
  for iter = 0 to Counters.max_iteration t.counters do
    let f = Tally.fast_tally t.tally t.counters ~stack_ids ~iter
    and a = !acc in
    acc :=
      {
        stack_reads = a.stack_reads + f.stack_reads;
        stack_writes = a.stack_writes + f.stack_writes;
        other_reads = a.other_reads + f.other_reads;
        other_writes = a.other_writes + f.other_writes;
      }
  done;
  !acc

let total_references t = t.total_refs
let unattributed t = Tally.unattributed t.tally

(* --- pipeline self-observability --------------------------------------- *)

type pipeline_stats = {
  batch_capacity : int;
  refs : int;
  batches : int;
  capacity_flushes : int;
  boundary_flushes : int;
  sinks : Sink.stats list;
}

let pipeline_stats (t : t) =
  {
    batch_capacity = t.batch_capacity;
    refs = t.total_refs;
    batches = t.batches_out;
    capacity_flushes = t.capacity_flushes;
    boundary_flushes = t.boundary_flushes;
    sinks = Array.to_list (Array.map Sink.stats t.sinks);
  }
