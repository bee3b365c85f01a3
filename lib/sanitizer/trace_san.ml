module Ctx = Nvsc_appkit.Ctx
module Access = Nvsc_memtrace.Access
module Layout = Nvsc_memtrace.Layout
module Mem_object = Nvsc_memtrace.Mem_object
module Object_registry = Nvsc_memtrace.Object_registry
module Shadow_stack = Nvsc_memtrace.Shadow_stack
module Sink = Nvsc_memtrace.Sink

type t = {
  ctx : Ctx.t;
  collector : Diagnostic.Collector.t;
  check_init : bool;
  objs : (int, Mem_object.t) Hashtbl.t; (* object id -> object *)
  init_maps : (int, Bytes.t) Hashtbl.t; (* heap id -> per-byte init bitmap *)
  (* last popped frame range per routine, stamped so the most recently
     popped frame covering an address wins attribution of a stale ref *)
  popped : (string, int * int * int) Hashtbl.t; (* routine -> stamp, lo, hi *)
  mutable pop_stamp : int;
  mutable tracked_depth : int; (* frame depth as seen through Ctx events *)
  mutable reported_imbalance : int;
  (* heap/global objects sorted by base, for redzone-proximity search *)
  mutable sorted : (int * int * Mem_object.t) array; (* base, last, obj *)
  mutable sorted_valid : bool;
  mutable refs_seen : int;
  mutable finished : bool;
}

let add t ?occurrence klass ~owner ~detail =
  Diagnostic.Collector.add t.collector ?occurrence klass ~owner ~detail

let occurrence t idx = { Diagnostic.phase = Ctx.phase t.ctx; index = idx }

(* Rebuild the object table from scratch: the registry and the context's
   routine-object table jointly hold every currently attributable object
   (global merges replace their parts there too). *)
let refresh t =
  Hashtbl.reset t.objs;
  List.iter
    (fun (o : Mem_object.t) -> Hashtbl.replace t.objs o.id o)
    (Object_registry.objects (Ctx.registry t.ctx));
  List.iter
    (fun (o : Mem_object.t) -> Hashtbl.replace t.objs o.id o)
    (Ctx.stack_objects t.ctx);
  let hg =
    Hashtbl.fold
      (fun _ (o : Mem_object.t) acc ->
        if o.kind <> Layout.Stack then o :: acc else acc)
      t.objs []
  in
  let arr = Array.of_list hg in
  Array.sort
    (fun (a : Mem_object.t) b -> compare (a.base, a.id) (b.base, b.id))
    arr;
  t.sorted <- Array.map (fun o -> (o.Mem_object.base, Mem_object.last_byte o, o)) arr;
  t.sorted_valid <- true

let find_obj t id =
  match Hashtbl.find_opt t.objs id with
  | Some _ as hit -> hit
  | None ->
    refresh t;
    Hashtbl.find_opt t.objs id

let ensure_sorted t = if not t.sorted_valid then refresh t

(* Nearest heap/global object edge to an address that belongs to none:
   used to classify redzone landings as out-of-bounds on a neighbour. *)
let nearest t addr =
  ensure_sorted t;
  let arr = t.sorted in
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let b, _, _ = arr.(mid) in
      if b <= addr then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    let pred =
      if !best < 0 then None
      else
        let _, last, o = arr.(!best) in
        if addr > last then Some (addr - last, `After, o) else None
    in
    let succ =
      if !best + 1 >= n then None
      else
        let b, _, o = arr.(!best + 1) in
        Some (b - addr, `Before, o)
    in
    match (pred, succ) with
    | Some ((d1, _, _) as p), Some ((d2, _, _) as s) ->
      Some (if d1 <= d2 then p else s)
    | (Some _ as hit), None | None, (Some _ as hit) -> hit
    | None, None -> None
  end

let rw is_write = if is_write then "write" else "read"

(* --- per-reference checks ---------------------------------------------- *)

let check_init_ref t (o : Mem_object.t) ~addr ~size ~is_write ~idx =
  match Hashtbl.find_opt t.init_maps o.id with
  | None -> () (* allocated before the sanitizer attached: not tracked *)
  | Some map ->
    let lo = Stdlib.max 0 (addr - o.base) in
    let hi = Stdlib.min o.size (addr - o.base + size) in
    if hi > lo then
      if is_write then Bytes.fill map lo (hi - lo) '\001'
      else begin
        let uninit = ref false in
        for b = lo to hi - 1 do
          if Bytes.get map b = '\000' then uninit := true
        done;
        if !uninit then begin
          add t ~occurrence:(occurrence t idx) Diagnostic.Uninit_read
            ~owner:o.name
            ~detail:
              (Printf.sprintf
                 "read at 0x%x touches never-written byte(s) of %s [0x%x,+%d)"
                 addr o.name o.base o.size);
          (* mark as initialised so one defect reports once per fill *)
          Bytes.fill map lo (hi - lo) '\001'
        end
      end

let check_attributed t ~addr ~size ~is_write ~id ~idx =
  match find_obj t id with
  | None -> ()
  | Some o when o.kind = Layout.Stack -> ()
  | Some o ->
    if o.kind = Layout.Heap && not o.live then
      add t ~occurrence:(occurrence t idx) Diagnostic.Use_after_free
        ~owner:o.name
        ~detail:
          (Printf.sprintf "%s at 0x%x into freed heap object %s [0x%x,+%d)"
             (rw is_write) addr o.name o.base o.size);
    if addr + size - 1 > Mem_object.last_byte o then
      add t ~occurrence:(occurrence t idx) Diagnostic.Straddle ~owner:o.name
        ~detail:
          (Printf.sprintf
             "%d-byte %s at 0x%x runs %d byte(s) past the end of %s [0x%x,+%d)"
             size (rw is_write) addr
             (addr + size - 1 - Mem_object.last_byte o)
             o.name o.base o.size);
    if t.check_init && o.kind = Layout.Heap && o.live then
      check_init_ref t o ~addr ~size ~is_write ~idx

let stale_owner t addr =
  let best = ref None in
  Hashtbl.iter
    (fun routine (stamp, lo, hi) ->
      if addr >= lo && addr < hi then
        match !best with
        | Some (s, _) when s >= stamp -> ()
        | _ -> best := Some (stamp, routine))
    t.popped;
  match !best with Some (_, routine) -> Some routine | None -> None

let check_unattributed t ~addr ~size ~is_write ~idx ~sp ~low_water =
  let occ = occurrence t idx in
  match Layout.classify addr with
  | Some Layout.Stack ->
    if addr < sp && addr >= low_water then begin
      let owner, where =
        match stale_owner t addr with
        | Some routine -> (routine, Printf.sprintf "popped frame of %s" routine)
        | None -> ("<stack>", "a popped stack region")
      in
      add t ~occurrence:occ Diagnostic.Stale_stack ~owner
        ~detail:
          (Printf.sprintf "%s at 0x%x into %s (sp=0x%x)" (rw is_write) addr
             where sp)
    end
    else
      add t ~occurrence:occ Diagnostic.Unattributed ~owner:"<stack>"
        ~detail:
          (Printf.sprintf "stack %s at 0x%x outside any live frame"
             (rw is_write) addr)
  | Some (Layout.Heap | Layout.Global) -> (
    let redzone = Ctx.redzone_bytes t.ctx in
    match nearest t addr with
    | Some (dist, side, o) when redzone > 0 && dist <= redzone ->
      add t ~occurrence:occ Diagnostic.Out_of_bounds ~owner:o.Mem_object.name
        ~detail:
          (Printf.sprintf "%d-byte %s at 0x%x, %d byte(s) %s %s [0x%x,+%d)"
             size (rw is_write) addr dist
             (match side with
             | `After -> "past the end of"
             | `Before -> "before the start of")
             o.Mem_object.name o.Mem_object.base o.Mem_object.size)
    | _ ->
      add t ~occurrence:occ Diagnostic.Unattributed ~owner:"<unregistered>"
        ~detail:
          (Printf.sprintf "%s at 0x%x resolves to no registered object"
             (rw is_write) addr))
  | None ->
    add t ~occurrence:occ Diagnostic.Unattributed ~owner:"<unmapped>"
      ~detail:
        (Printf.sprintf "%s at 0x%x outside every segment" (rw is_write) addr)

(* Batches arrive flushed-before-mutation (Ctx pre-mutation flush), so the
   shadow-stack state below is the state every reference in the slice was
   emitted under — at any batch capacity. *)
let on_batch t batch ~(obj_ids : int array) ~first ~n =
  let shadow = Ctx.shadow t.ctx in
  let sp = Shadow_stack.sp shadow in
  let low_water = Shadow_stack.max_extent shadow in
  for i = first to first + n - 1 do
    let addr = Sink.Batch.addr batch i in
    let size = Sink.Batch.size batch i in
    let is_write = Sink.Batch.is_write batch i in
    let idx = t.refs_seen in
    t.refs_seen <- idx + 1;
    let id = obj_ids.(i) in
    if id >= 0 then check_attributed t ~addr ~size ~is_write ~id ~idx
    else check_unattributed t ~addr ~size ~is_write ~idx ~sp ~low_water
  done

(* --- lifecycle checks --------------------------------------------------- *)

let phase_name = function
  | Mem_object.Pre -> "pre"
  | Mem_object.Post -> "post"
  | Mem_object.Main i -> Printf.sprintf "main[%d]" i

let check_balance t boundary =
  let actual = Shadow_stack.depth (Ctx.shadow t.ctx) in
  let delta = actual - t.tracked_depth in
  if delta <> t.reported_imbalance then begin
    add t Diagnostic.Unbalanced_frames ~owner:(phase_name boundary)
      ~detail:
        (Printf.sprintf
           "shadow stack holds %d frame(s) not pushed through Ctx.call at \
            the %s boundary (depth %d, tracked %d)"
           delta (phase_name boundary) actual t.tracked_depth);
    t.reported_imbalance <- delta
  end

let on_objects t =
  List.iter (fun (o : Mem_object.t) ->
      Hashtbl.replace t.objs o.id o;
      t.sorted_valid <- false;
      if t.check_init && o.kind = Layout.Heap then
        Hashtbl.replace t.init_maps o.id (Bytes.make o.size '\000'))

let on_frame t (ev : Ctx.event) =
  match ev with
  | Ctx.Frame_push _ -> t.tracked_depth <- t.tracked_depth + 1
  | Ctx.Frame_pop frame ->
    t.tracked_depth <- t.tracked_depth - 1;
    t.pop_stamp <- t.pop_stamp + 1;
    Hashtbl.replace t.popped frame.Shadow_stack.routine
      ( t.pop_stamp,
        frame.Shadow_stack.base_sp - frame.Shadow_stack.frame_size,
        frame.Shadow_stack.base_sp )

(* --- teardown checks ---------------------------------------------------- *)

let check_overlaps t =
  let live =
    List.filter
      (fun (o : Mem_object.t) -> o.live && o.kind <> Layout.Stack)
      (Object_registry.objects (Ctx.registry t.ctx))
  in
  let arr = Array.of_list live in
  Array.sort
    (fun (a : Mem_object.t) b -> compare (a.base, a.id) (b.base, b.id))
    arr;
  let cover = ref None in
  Array.iter
    (fun (o : Mem_object.t) ->
      (match !cover with
      | Some ((p : Mem_object.t), last) when o.base <= last ->
        let a, b = if p.name <= o.name then (p, o) else (o, p) in
        add t Diagnostic.Overlap
          ~owner:(Printf.sprintf "%s/%s" a.name b.name)
          ~detail:
            (Printf.sprintf
               "live registrations %s [0x%x,+%d) and %s [0x%x,+%d) overlap"
               a.name a.base a.size b.name b.base b.size)
      | _ -> ());
      match !cover with
      | Some (_, last) when last >= Mem_object.last_byte o -> ()
      | _ -> cover := Some (o, Mem_object.last_byte o))
    arr

let check_leaks t =
  List.iter
    (fun (o : Mem_object.t) ->
      match (o.kind, o.live, o.alloc_phase) with
      | Layout.Heap, true, Mem_object.Main i ->
        add t Diagnostic.Leak ~owner:o.name
          ~detail:
            (Printf.sprintf
               "heap object %s [0x%x,+%d) allocated in main[%d] is still \
                live at teardown"
               o.name o.base o.size i)
      | _ -> ())
    (Object_registry.objects (Ctx.registry t.ctx))

(* --- public API --------------------------------------------------------- *)

let attach ?(check_init = false) ctx =
  let t =
    {
      ctx;
      collector = Diagnostic.Collector.create ();
      check_init;
      objs = Hashtbl.create 256;
      init_maps = Hashtbl.create 64;
      popped = Hashtbl.create 64;
      pop_stamp = 0;
      tracked_depth = Shadow_stack.depth (Ctx.shadow ctx);
      reported_imbalance = 0;
      sorted = [||];
      sorted_valid = false;
      refs_seen = 0;
      finished = false;
    }
  in
  Ctx.add_frame_hook ctx (on_frame t);
  Ctx.observe ctx ~on_objects:(on_objects t) ~on_phase:(check_balance t)
    ~on_refs:(on_batch t) ();
  refresh t;
  t

let refs_checked t = t.refs_seen

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Ctx.flush_refs t.ctx;
    check_balance t (Ctx.phase t.ctx);
    check_overlaps t;
    check_leaks t
  end;
  Diagnostic.Collector.report t.collector
