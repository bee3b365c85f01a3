module Ctx = Nvsc_appkit.Ctx
module Mem_object = Nvsc_memtrace.Mem_object
module Object_registry = Nvsc_memtrace.Object_registry
module Persist = Nvsc_memtrace.Persist
module Sink = Nvsc_memtrace.Sink
module Trace_codec = Nvsc_memtrace.Trace_codec
module Technology = Nvsc_nvram.Technology
module Item = Nvsc_placement.Item

let default_line_bytes = 64

type stats = {
  mutable stores_checked : int;
  mutable flushes : int;
  mutable flushed_lines : int;
  mutable fences : int;
  mutable epochs : int;
}

let zero_stats () =
  { stores_checked = 0; flushes = 0; flushed_lines = 0; fences = 0; epochs = 0 }

(* Per-cacheline durability state of one declared-persistent object.  One
   byte per line: '\000' clean (durable), '\001' dirty (in cache only),
   '\002' flushing (written back, not yet fenced). *)
type tracked = {
  obj : Mem_object.t;
  lines : Bytes.t;
  mutable dirty : int;  (* lines in state '\001' *)
  mutable inflight : int;  (* lines in state '\002' *)
}

type t = {
  collector : Diagnostic.Collector.t;
  line_bytes : int;
  line_shift : int;  (* log2 line_bytes — divisions are too hot here *)
  known : (int, Mem_object.t) Hashtbl.t;  (* every object seen, by id *)
  tracked : (int, tracked) Hashtbl.t;  (* the declared persist set *)
  (* the same set as a dense index: the per-reference hot loop must
     answer "is this write persistent?" without hashing *)
  mutable by_id : tracked option array;
  mutable epoch_stack : (string * bool) list;  (* innermost first *)
  mutable inflight : int;  (* in-flight lines across all objects *)
  mutable refs_seen : int;
  mutable boundaries : int;  (* epoch begin/commit events seen *)
  stats : stats;
  mutable phase : Mem_object.phase;  (* the stream's, from [on_phase] *)
  get_source : t -> Diagnostic.source option;  (* replay position stamp *)
  mutable finished : bool;
}

let add t ?severity klass ~owner ~detail =
  Diagnostic.Collector.add t.collector ?severity
    ~occurrence:{ Diagnostic.phase = t.phase; index = t.refs_seen }
    ?source:(t.get_source t) klass ~owner ~detail

let lines_of t size = (size + t.line_bytes - 1) lsr t.line_shift

let track t (o : Mem_object.t) =
  if not (Hashtbl.mem t.tracked o.id) then begin
    let tr =
      {
        obj = o;
        lines = Bytes.make (Stdlib.max 1 (lines_of t o.size)) '\000';
        dirty = 0;
        inflight = 0;
      }
    in
    Hashtbl.replace t.tracked o.id tr;
    if o.id >= Array.length t.by_id then begin
      let grown = Array.make (2 * (o.id + 1)) None in
      Array.blit t.by_id 0 grown 0 (Array.length t.by_id);
      t.by_id <- grown
    end;
    t.by_id.(o.id) <- Some tr
  end

(* --- the per-line state machine ----------------------------------------- *)

let note_store t tr ~addr ~size =
  t.stats.stores_checked <- t.stats.stores_checked + 1;
  let base = tr.obj.Mem_object.base in
  let lo = Stdlib.max 0 (addr - base) lsr t.line_shift in
  let hi =
    Stdlib.min (tr.obj.Mem_object.size - 1) (addr + size - 1 - base)
    lsr t.line_shift
  in
  for l = lo to hi do
    match Bytes.unsafe_get tr.lines l with
    | '\001' -> ()
    | '\000' ->
      Bytes.unsafe_set tr.lines l '\001';
      tr.dirty <- tr.dirty + 1
    | _ ->
      (* store overtakes an unfenced write-back: whether the line lands
         durably with the old or the new value depends on timing *)
      add t Diagnostic.Flush_race ~owner:tr.obj.name
        ~detail:
          (Printf.sprintf
             "store at 0x%x hits line %d of %s while its flush is still in \
              flight (no fence since)"
             addr l tr.obj.name);
      Bytes.unsafe_set tr.lines l '\001';
      tr.inflight <- tr.inflight - 1;
      t.inflight <- t.inflight - 1;
      tr.dirty <- tr.dirty + 1
  done

let note_flush t ~obj_id ~off ~len =
  t.stats.flushes <- t.stats.flushes + 1;
  match Hashtbl.find_opt t.tracked obj_id with
  | None ->
    let name =
      match Hashtbl.find_opt t.known obj_id with
      | Some o -> o.Mem_object.name
      | None -> Printf.sprintf "#%d" obj_id
    in
    add t Diagnostic.Redundant_flush ~owner:name
      ~detail:
        (Printf.sprintf
           "flush of %s, which was never declared persistent (nothing to \
            make durable)"
           name)
  | Some tr ->
    let lo = off lsr t.line_shift
    and hi = (off + len - 1) lsr t.line_shift in
    t.stats.flushed_lines <- t.stats.flushed_lines + (hi - lo + 1);
    let newly = ref 0 in
    for l = lo to hi do
      if Bytes.unsafe_get tr.lines l = '\001' then begin
        Bytes.unsafe_set tr.lines l '\002';
        incr newly
      end
    done;
    if !newly = 0 then
      add t Diagnostic.Redundant_flush ~owner:tr.obj.name
        ~detail:
          (Printf.sprintf
             "flush of %s [%d,+%d) covers no dirty line (already clean or \
              still in flight)"
             tr.obj.name off len)
    else begin
      tr.dirty <- tr.dirty - !newly;
      tr.inflight <- tr.inflight + !newly;
      t.inflight <- t.inflight + !newly
    end

let note_fence t =
  t.stats.fences <- t.stats.fences + 1;
  if t.inflight = 0 then
    add t Diagnostic.Useless_fence ~owner:"<fence>"
      ~detail:"fence with no flush in flight orders nothing"
  else begin
    Hashtbl.iter
      (fun _ (tr : tracked) ->
        if tr.inflight > 0 then begin
          for l = 0 to Bytes.length tr.lines - 1 do
            if Bytes.unsafe_get tr.lines l = '\002' then
              Bytes.unsafe_set tr.lines l '\000'
          done;
          tr.inflight <- 0
        end)
      t.tracked;
    t.inflight <- 0
  end

let note_epoch_begin t ~label ~checkpoint:_ =
  t.boundaries <- t.boundaries + 1;
  t.stats.epochs <- t.stats.epochs + 1;
  (match t.epoch_stack with
  | (open_label, _) :: _ ->
    add t Diagnostic.Epoch_unbalanced ~owner:label
      ~detail:
        (Printf.sprintf "epoch %S begins inside still-open epoch %S" label
           open_label)
  | [] -> ());
  t.epoch_stack <- (label, false) :: t.epoch_stack

let note_epoch_commit t ~label ~checkpoint =
  t.boundaries <- t.boundaries + 1;
  (match t.epoch_stack with
  | [] ->
    add t Diagnostic.Epoch_unbalanced ~owner:label
      ~detail:(Printf.sprintf "commit of %S without a matching begin" label)
  | (open_label, _) :: rest ->
    if open_label <> label then
      add t Diagnostic.Epoch_unbalanced ~owner:label
        ~detail:
          (Printf.sprintf "commit of %S closes mismatched epoch %S" label
             open_label);
    t.epoch_stack <- rest);
  (* the durability contract: at commit every line of the persist set is
     durable — not dirty, and not waiting on a fence *)
  Hashtbl.iter
    (fun _ (tr : tracked) ->
      if tr.dirty > 0 then
        add t Diagnostic.Unflushed_commit ~owner:tr.obj.name
          ~detail:
            (Printf.sprintf
               "%d dirty line(s) of %s not flushed at commit of epoch %S"
               tr.dirty tr.obj.name label);
      if tr.inflight > 0 then
        add t Diagnostic.Torn_checkpoint ~owner:tr.obj.name
          ~detail:
            (Printf.sprintf
               "%d line(s) of %s flushed but not fenced at commit of %s %S \
                — a crash here tears the state"
               tr.inflight tr.obj.name
               (if checkpoint then "checkpoint" else "epoch")
               label))
    t.tracked

let on_persist t (ev : Persist.t) =
  match ev with
  | Persist.Declare { obj_id } -> (
    match Hashtbl.find_opt t.known obj_id with
    | Some o -> track t o
    | None ->
      add t Diagnostic.Epoch_unbalanced
        ~owner:(Printf.sprintf "#%d" obj_id)
        ~detail:
          (Printf.sprintf "persist declaration of unknown object #%d" obj_id))
  | Persist.Flush { obj_id; off; len } -> note_flush t ~obj_id ~off ~len
  | Persist.Fence -> note_fence t
  | Persist.Epoch_begin { label; checkpoint } ->
    note_epoch_begin t ~label ~checkpoint
  | Persist.Epoch_commit { label; checkpoint } ->
    note_epoch_commit t ~label ~checkpoint

let on_batch t batch ~(obj_ids : int array) ~first ~n =
  let refs0 = t.refs_seen in
  let by_id = t.by_id in
  let cap = Array.length by_id in
  for i = first to first + n - 1 do
    if Sink.Batch.is_write batch i then begin
      let id = obj_ids.(i) in
      if id >= 0 && id < cap then
        match Array.unsafe_get by_id id with
        | None -> ()
        | Some tr ->
          (* the stream position only matters when a finding fires *)
          t.refs_seen <- refs0 + (i - first);
          note_store t tr ~addr:(Sink.Batch.addr batch i)
            ~size:(Sink.Batch.size batch i)
    end
  done;
  t.refs_seen <- refs0 + n

(* --- shared construction ------------------------------------------------ *)

let make ?(line_bytes = default_line_bytes) ~phase ~get_source () =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Persist_check: line_bytes must be a positive power of two";
  let line_shift =
    let rec go s n = if n <= 1 then s else go (s + 1) (n lsr 1) in
    go 0 line_bytes
  in
  {
    collector = Diagnostic.Collector.create ();
    line_bytes;
    line_shift;
    known = Hashtbl.create 256;
    tracked = Hashtbl.create 16;
    by_id = Array.make 64 None;
    epoch_stack = [];
    inflight = 0;
    refs_seen = 0;
    boundaries = 0;
    stats = zero_stats ();
    phase;
    get_source;
    finished = false;
  }

let finish t =
  if not t.finished then begin
    t.finished <- true;
    List.iter
      (fun (label, _) ->
        add t Diagnostic.Epoch_unbalanced ~owner:label
          ~detail:
            (Printf.sprintf "epoch %S still open at the end of the run" label))
      t.epoch_stack
  end;
  Diagnostic.Collector.report t.collector

(* --- the persist set against the run's profile -------------------------- *)

(* Writes per word per main-loop iteration above which a persistent
   object is flagged.  Checkpointed-once-per-iteration state scores ~1;
   write-hammered working arrays score far higher and do not belong in
   NVM (paper §IV: wear and write latency dominate). *)
let wear_threshold = 4.0

let check_set t ~iterations items =
  let pinned (i : Item.t) = Hashtbl.mem t.tracked i.id in
  if Hashtbl.length t.tracked > 0 then begin
    (* whole-run findings: no occurrence, like the static config lint *)
    let add klass ~owner ~detail =
      Diagnostic.Collector.add t.collector klass ~owner ~detail
    in
    let tech = Technology.get Technology.PCRAM in
    List.iter
      (fun (i : Item.t) ->
        let density =
          float_of_int i.writes
          /. float_of_int (Stdlib.max 1 (i.size_bytes / 8))
          /. float_of_int (Stdlib.max 1 iterations)
        in
        if pinned i && density > wear_threshold then
          add Diagnostic.Persist_write_heavy ~owner:i.name
            ~detail:
              (Printf.sprintf
                 "%.1f writes/word/iteration to persistent %s — %s wear \
                  and write latency dominate (threshold %.1f)"
                 density i.name tech.Technology.name wear_threshold))
      items
  end

let stats t = t.stats
let refs_checked t = t.refs_seen
let epoch_boundaries t = t.boundaries

(* --- the one callback set ------------------------------------------------ *)

(* The checker's subscription, with the labels of [Ctx.observe] and
   [Trace_codec.stream], so a live run and a trace feed it alike. *)
let subscribe t observe =
  observe
    ~on_objects:
      (List.iter (fun (o : Mem_object.t) -> Hashtbl.replace t.known o.id o))
    ~on_phase:(fun p -> t.phase <- p)
    ~on_persist:(on_persist t)
    ~on_refs:(on_batch t)

let attach ?line_bytes ctx =
  let t =
    make ?line_bytes ~phase:(Ctx.phase ctx) ~get_source:(fun _ -> None) ()
  in
  List.iter
    (fun (o : Mem_object.t) -> Hashtbl.replace t.known o.id o)
    (Object_registry.objects (Ctx.registry ctx) @ Ctx.stack_objects ctx);
  subscribe t (fun ~on_objects ~on_phase ~on_persist ~on_refs ->
      Ctx.observe ctx ~on_objects ~on_phase ~on_persist ~on_refs ());
  t

let replay ?line_bytes ?at_boundary path =
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let chunk = ref 0 in
  let t =
    make ?line_bytes ~phase:Mem_object.Pre
      ~get_source:(fun t ->
        Some { Diagnostic.file = path; chunk = !chunk; record = t.refs_seen })
      ()
  in
  List.iter
    (fun (o : Mem_object.t) -> Hashtbl.replace t.known o.id o)
    (Trace_codec.Reader.objects r @ Trace_codec.Reader.stack_objects r);
  (* the trailer's final tables above already hold every object *)
  subscribe t (fun ~on_objects:_ ~on_phase ~on_persist ~on_refs ->
      Trace_codec.stream r ~on_phase
        ~on_chunk:(fun k -> chunk := k)
        ~on_persist:(fun ev ->
          let k = t.boundaries in
          on_persist ev;
          (* the checker is online: a crash just after boundary [k] would
             see exactly the findings so far, with no end-of-run checks *)
          match at_boundary with
          | Some f when t.boundaries > k ->
            f k (Diagnostic.Collector.report t.collector)
          | _ -> ())
        ~on_refs ());
  (finish t, t)
