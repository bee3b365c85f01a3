module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Hierarchy = Nvsc_cachesim.Hierarchy

(* The classifier's cycle counters: none of them depends on latency.  An
   all-float record is stored flat, so updating it allocates nothing. *)
type cycles = {
  mutable base : float;
  mutable l2_stall : float;
  mutable tlb_stall : float;
}

(* One write model's view of main memory: writes cost what reads do (the
   paper's §V) or are posted.  A posted write miss bypasses the stream
   prefetcher and the miss clusters, so each write model present keeps
   its own prefetcher table and cluster state. *)
type view = {
  posted : bool;
  (* stream-prefetcher state: region -> last line, bounded LRU *)
  streams : (int, int) Hashtbl.t;
  stream_order : int Queue.t;
  (* miss clustering *)
  mutable cluster_open : bool;
  mutable cluster_anchor_idx : int;
  mutable cluster_size : int;
  mutable clusters : int;
}

type t = {
  p : Core_params.t;
  (* --- the classifier, shared by every ledger --- *)
  hierarchy : Hierarchy.t;
  tlb : Tlb.t;
  l2_visible_cycles : float;
  covered_miss_cycles : float;
  stream_slots : int;
  (* accounting *)
  cycles : cycles;
  mutable instr_count : int;
  mutable mem_instr_count : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable mem_accesses : int;
  views : view array; (* one per write model present *)
  (* --- the ledgers, slot [i] for the [i]th latency --- *)
  view_of : view array;
  cluster_cycles : float array; (* a closed cluster's visible latency *)
  mem_stall : float array;
  write_latency_cycles : float array; (* meaningful only when posted *)
  write_buffers : float Queue.t array; (* cycle stamps at which entries free *)
  write_buffer_entries : int;
}

type latency = { mem_latency_ns : float; mem_write_latency_ns : float option }

let valid_latency ns = Float.is_finite ns && ns > 0.

let make ~fn ?(params = Core_params.paper) ?l1d ?l2
    ?(write_buffer_entries = 16) latencies =
  let fail what = invalid_arg (Printf.sprintf "Perf_model.%s: %s" fn what) in
  if latencies = [] then fail "no latency";
  List.iter
    (fun l ->
      if not (valid_latency l.mem_latency_ns) then fail "latency";
      match l.mem_write_latency_ns with
      | Some w when not (valid_latency w) -> fail "write latency"
      | _ -> ())
    latencies;
  if write_buffer_entries <= 0 then fail "write buffer";
  let p = params in
  let ledgers = Array.of_list latencies in
  let view posted =
    {
      posted;
      streams = Hashtbl.create 32;
      stream_order = Queue.create ();
      cluster_open = false;
      cluster_anchor_idx = 0;
      cluster_size = 0;
      clusters = 0;
    }
  in
  let paper = view false and posted = view true in
  let view_of =
    Array.map
      (fun l -> if Option.is_some l.mem_write_latency_ns then posted else paper)
      ledgers
  in
  let rob_hide_cycles =
    float_of_int p.rob_entries /. float_of_int p.issue_width
  in
  {
    p;
    hierarchy = Hierarchy.create ?l1d ?l2 ~sink:(Sink.null ()) ();
    tlb = Tlb.create ~entries:p.tlb_entries ~page_bytes:p.page_bytes;
    l2_visible_cycles = float_of_int (p.l2_hit_cycles - p.l1_hit_cycles) /. 2.;
    covered_miss_cycles = 4.0;
    stream_slots = 16;
    cycles = { base = 0.; l2_stall = 0.; tlb_stall = 0. };
    instr_count = 0;
    mem_instr_count = 0;
    l1_hits = 0;
    l2_hits = 0;
    mem_accesses = 0;
    views =
      Array.of_list
        (List.filter (fun v -> Array.memq v view_of) [ paper; posted ]);
    view_of;
    cluster_cycles =
      Array.map
        (fun l ->
          Float.max 0. ((l.mem_latency_ns *. p.clock_ghz) -. rob_hide_cycles))
        ledgers;
    mem_stall = Array.make (Array.length ledgers) 0.;
    write_latency_cycles =
      Array.map
        (fun l ->
          match l.mem_write_latency_ns with
          | Some w -> w *. p.clock_ghz
          | None -> nan)
        ledgers;
    write_buffers = Array.map (fun _ -> Queue.create ()) ledgers;
    write_buffer_entries;
  }

let create ?params ?l1d ?l2 ?mem_write_latency_ns ?write_buffer_entries
    ~mem_latency_ns () =
  make ~fn:"create" ?params ?l1d ?l2 ?write_buffer_entries
    [ { mem_latency_ns; mem_write_latency_ns } ]

let create_ledgers ?params ?l1d ?l2 ?write_buffer_entries latencies =
  make ~fn:"create_ledgers" ?params ?l1d ?l2 ?write_buffer_entries latencies

let retire t n =
  t.instr_count <- t.instr_count + n;
  t.cycles.base <-
    t.cycles.base +. (float_of_int n /. float_of_int t.p.issue_width)

let instructions t n =
  if n < 0 then invalid_arg "Perf_model.instructions: negative count";
  retire t n

(* The hardware stream prefetcher: a miss whose line extends an active
   stream (within two lines of that stream's last fetch) is covered — its
   latency is hidden and only a bandwidth slot is paid.  Streams are
   tracked per 4 KiB region; a stream that has just crossed a region
   boundary is found via the predecessor line's region, so long unit-stride
   sweeps stay covered. *)
let stream_covered t v line =
  let region = line lsr 6 in
  let extends r =
    match Hashtbl.find_opt v.streams r with
    | Some last -> line > last && line - last <= 2
    | None -> false
  in
  let covered = extends region || extends ((line - 2) lsr 6) in
  if not (Hashtbl.mem v.streams region) then begin
    if Queue.length v.stream_order >= t.stream_slots then begin
      let victim = Queue.pop v.stream_order in
      Hashtbl.remove v.streams victim
    end;
    Queue.push region v.stream_order
  end;
  Hashtbl.replace v.streams region line;
  covered

(* A covered miss costs the same bandwidth slot on every ledger. *)
let stall_all t v cycles =
  let s = t.mem_stall in
  for i = 0 to Array.length s - 1 do
    if t.view_of.(i) == v then s.(i) <- s.(i) +. cycles
  done

(* Demand misses cluster: within one ROB reach of the cluster anchor, up to
   [effective_mlp] misses share a single memory latency.  When a cluster
   cannot absorb the miss, the previous cluster's latency is charged (less
   the ROB's overlap reach) and a new cluster opens. *)
let charge_cluster t v =
  let s = t.mem_stall and c = t.cluster_cycles in
  for i = 0 to Array.length s - 1 do
    if t.view_of.(i) == v then s.(i) <- s.(i) +. c.(i)
  done;
  v.clusters <- v.clusters + 1

let demand_miss t v =
  let idx = t.instr_count in
  if
    v.cluster_open
    && idx - v.cluster_anchor_idx <= t.p.rob_entries
    && v.cluster_size < t.p.effective_mlp
  then v.cluster_size <- v.cluster_size + 1
  else begin
    if v.cluster_open then charge_cluster t v;
    v.cluster_open <- true;
    v.cluster_anchor_idx <- idx;
    v.cluster_size <- 1
  end

(* Posted writes: a write miss grabs a write-buffer entry for the write
   duration and only stalls the pipeline when the buffer is full (the
   hardware mechanism that absorbs NVRAM's slow writes).  Each ledger has
   its own buffer, timed by its own cycle count. *)
let current_cycles t i =
  t.cycles.base +. t.cycles.l2_stall +. t.mem_stall.(i) +. t.cycles.tlb_stall

let posted_write t i =
  let now = current_cycles t i in
  let buffer = t.write_buffers.(i) in
  (* free completed entries *)
  while (not (Queue.is_empty buffer)) && Queue.peek buffer <= now do
    ignore (Queue.pop buffer)
  done;
  let start =
    if Queue.length buffer < t.write_buffer_entries then now
    else begin
      (* buffer full: stall until the oldest entry frees *)
      let release = Queue.pop buffer in
      let stall = Float.max 0. (release -. now) in
      t.mem_stall.(i) <- t.mem_stall.(i) +. stall;
      now +. stall
    end
  in
  Queue.push (start +. t.write_latency_cycles.(i)) buffer;
  (* the write still occupies a bandwidth slot *)
  t.mem_stall.(i) <- t.mem_stall.(i) +. t.covered_miss_cycles

let access_raw t ~addr ~size ~op =
  t.mem_instr_count <- t.mem_instr_count + 1;
  retire t 1;
  if not (Tlb.access t.tlb addr) then
    t.cycles.tlb_stall <-
      t.cycles.tlb_stall +. float_of_int t.p.tlb_miss_cycles;
  match Hierarchy.access_classified_raw t.hierarchy ~addr ~size ~op with
  | `L1 -> t.l1_hits <- t.l1_hits + 1
  | `L2 ->
    t.l2_hits <- t.l2_hits + 1;
    t.cycles.l2_stall <- t.cycles.l2_stall +. t.l2_visible_cycles
  | `Mem ->
    t.mem_accesses <- t.mem_accesses + 1;
    for k = 0 to Array.length t.views - 1 do
      let v = t.views.(k) in
      match op with
      | Access.Write when v.posted ->
        for i = 0 to Array.length t.mem_stall - 1 do
          if t.view_of.(i) == v then posted_write t i
        done
      | Access.Read | Access.Write ->
        let line = addr / 64 in
        if stream_covered t v line then stall_all t v t.covered_miss_cycles
        else demand_miss t v
    done

let access t (a : Access.t) = access_raw t ~addr:a.addr ~size:a.size ~op:a.op

let consume t batch ~first ~n =
  for i = first to first + n - 1 do
    access_raw t ~addr:(Sink.Batch.addr batch i) ~size:(Sink.Batch.size batch i)
      ~op:(Sink.Batch.op batch i)
  done

type report = {
  instructions : int;
  mem_instructions : int;
  cycles : float;
  base_cycles : float;
  l2_stall_cycles : float;
  mem_stall_cycles : float;
  tlb_stall_cycles : float;
  runtime_ns : float;
  ipc : float;
  l1_hits : int;
  l2_hits : int;
  mem_accesses : int;
  miss_clusters : int;
  tlb_misses : int;
}

let ledger_report (t : t) i =
  (* Close any open cluster so its latency is not lost. *)
  let v = t.view_of.(i) in
  let pending = if v.cluster_open then 1 else 0 in
  let mem_stall =
    t.mem_stall.(i) +. if pending = 1 then t.cluster_cycles.(i) else 0.
  in
  let c = t.cycles in
  let cycles = c.base +. c.l2_stall +. mem_stall +. c.tlb_stall in
  {
    instructions = t.instr_count;
    mem_instructions = t.mem_instr_count;
    cycles;
    base_cycles = c.base;
    l2_stall_cycles = c.l2_stall;
    mem_stall_cycles = mem_stall;
    tlb_stall_cycles = c.tlb_stall;
    runtime_ns = cycles /. t.p.clock_ghz;
    ipc =
      (if cycles > 0. then float_of_int t.instr_count /. cycles else 0.);
    l1_hits = t.l1_hits;
    l2_hits = t.l2_hits;
    mem_accesses = t.mem_accesses;
    miss_clusters = v.clusters + pending;
    tlb_misses = Tlb.misses t.tlb;
  }

let reports t = List.init (Array.length t.mem_stall) (ledger_report t)
let report t = ledger_report t 0
