(* Reference implementation: the one-technology performance model the
   classifier/ledger [Nvsc_cpusim.Perf_model] replaced (one model per
   latency, latency folded into a single mem_stall counter).  Oracle for
   the differential qcheck properties — do not optimize. *)

module Core_params = Nvsc_cpusim.Core_params
module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Hierarchy = Nvsc_cachesim.Hierarchy

(* Fully associative LRU TLB as a linear scan over per-entry ages: the
   model [Perf_model]'s one-set [Cache] TLB is checked against. *)
module Tlb = struct
  type t = {
    entries : int;
    page_bytes : int;
    pages : int array; (* -1 = invalid *)
    age : int array;
    mutable clock : int;
    mutable misses : int;
  }

  let create ~entries ~page_bytes =
    {
      entries;
      page_bytes;
      pages = Array.make entries (-1);
      age = Array.make entries 0;
      clock = 0;
      misses = 0;
    }

  (* [true] on a hit; a miss installs the page in the first invalid entry,
     else over the least recently used one *)
  let access t addr =
    let page = addr / t.page_bytes in
    t.clock <- t.clock + 1;
    let rec find i =
      if i >= t.entries then None
      else if t.pages.(i) = page then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
      t.age.(i) <- t.clock;
      true
    | None ->
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      for i = 1 to t.entries - 1 do
        if t.pages.(i) = -1 && t.pages.(!victim) <> -1 then victim := i
        else if t.pages.(!victim) <> -1 && t.age.(i) < t.age.(!victim) then
          victim := i
      done;
      t.pages.(!victim) <- page;
      t.age.(!victim) <- t.clock;
      false

  let misses t = t.misses
end

type t = {
  p : Core_params.t;
  hierarchy : Hierarchy.t;
  tlb : Tlb.t;
  mem_latency_ns : float;
  mem_latency_cycles : float;
  write_latency_cycles : float option; (* None = paper mode (write = read) *)
  write_buffer : float Queue.t; (* cycle stamps at which entries free *)
  write_buffer_entries : int;
  rob_hide_cycles : float;
  l2_visible_cycles : float;
  covered_miss_cycles : float;
  (* stream-prefetcher state: region -> last line, bounded LRU *)
  streams : (int, int) Hashtbl.t;
  stream_order : int Queue.t;
  stream_slots : int;
  (* miss clustering *)
  mutable cluster_open : bool;
  mutable cluster_anchor_idx : int;
  mutable cluster_size : int;
  (* accounting *)
  mutable instr_count : int;
  mutable mem_instr_count : int;
  mutable base_cycles : float;
  mutable l2_stall : float;
  mutable mem_stall : float;
  mutable tlb_stall : float;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable mem_accesses : int;
  mutable covered_misses : int;
  mutable clusters : int;
}

let create ?(params = Core_params.paper) ?l1d ?l2 ?mem_write_latency_ns
    ?(write_buffer_entries = 16) ~mem_latency_ns () =
  if mem_latency_ns <= 0. then invalid_arg "Perf_model.create: latency";
  (match mem_write_latency_ns with
  | Some w when w <= 0. -> invalid_arg "Perf_model.create: write latency"
  | _ -> ());
  if write_buffer_entries <= 0 then
    invalid_arg "Perf_model.create: write buffer";
  let p = params in
  {
    p;
    hierarchy = Hierarchy.create ?l1d ?l2 ~sink:(Sink.null ()) ();
    tlb = Tlb.create ~entries:p.tlb_entries ~page_bytes:p.page_bytes;
    mem_latency_ns;
    mem_latency_cycles = mem_latency_ns *. p.clock_ghz;
    write_latency_cycles =
      Option.map (fun w -> w *. p.clock_ghz) mem_write_latency_ns;
    write_buffer = Queue.create ();
    write_buffer_entries;
    rob_hide_cycles = float_of_int p.rob_entries /. float_of_int p.issue_width;
    l2_visible_cycles = float_of_int (p.l2_hit_cycles - p.l1_hit_cycles) /. 2.;
    covered_miss_cycles = 4.0;
    streams = Hashtbl.create 32;
    stream_order = Queue.create ();
    stream_slots = 16;
    cluster_open = false;
    cluster_anchor_idx = 0;
    cluster_size = 0;
    instr_count = 0;
    mem_instr_count = 0;
    base_cycles = 0.;
    l2_stall = 0.;
    mem_stall = 0.;
    tlb_stall = 0.;
    l1_hits = 0;
    l2_hits = 0;
    mem_accesses = 0;
    covered_misses = 0;
    clusters = 0;
  }

let retire t n =
  t.instr_count <- t.instr_count + n;
  t.base_cycles <-
    t.base_cycles +. (float_of_int n /. float_of_int t.p.issue_width)

let instructions t n =
  if n < 0 then invalid_arg "Perf_model.instructions: negative count";
  retire t n

(* The hardware stream prefetcher: a miss whose line extends an active
   stream (within two lines of that stream's last fetch) is covered — its
   latency is hidden and only a bandwidth slot is paid.  Streams are
   tracked per 4 KiB region; a stream that has just crossed a region
   boundary is found via the predecessor line's region, so long unit-stride
   sweeps stay covered. *)
let stream_covered t line =
  let region = line lsr 6 in
  let extends r =
    match Hashtbl.find_opt t.streams r with
    | Some last -> line > last && line - last <= 2
    | None -> false
  in
  let covered = extends region || extends ((line - 2) lsr 6) in
  if not (Hashtbl.mem t.streams region) then begin
    if Queue.length t.stream_order >= t.stream_slots then begin
      let victim = Queue.pop t.stream_order in
      Hashtbl.remove t.streams victim
    end;
    Queue.push region t.stream_order
  end;
  Hashtbl.replace t.streams region line;
  covered

(* Demand misses cluster: within one ROB reach of the cluster anchor, up to
   [effective_mlp] misses share a single memory latency.  When a cluster
   cannot absorb the miss, the previous cluster's latency is charged (less
   the ROB's overlap reach) and a new cluster opens. *)
let charge_cluster t =
  t.mem_stall <-
    t.mem_stall +. Float.max 0. (t.mem_latency_cycles -. t.rob_hide_cycles);
  t.clusters <- t.clusters + 1

let demand_miss t =
  let idx = t.instr_count in
  if
    t.cluster_open
    && idx - t.cluster_anchor_idx <= t.p.rob_entries
    && t.cluster_size < t.p.effective_mlp
  then t.cluster_size <- t.cluster_size + 1
  else begin
    if t.cluster_open then charge_cluster t;
    t.cluster_open <- true;
    t.cluster_anchor_idx <- idx;
    t.cluster_size <- 1
  end

(* Posted writes: a write miss grabs a write-buffer entry for the write
   duration and only stalls the pipeline when the buffer is full (the
   hardware mechanism that absorbs NVRAM's slow writes). *)
let current_cycles t =
  t.base_cycles +. t.l2_stall +. t.mem_stall +. t.tlb_stall

let posted_write t write_cycles =
  let now = current_cycles t in
  (* free completed entries *)
  let rec prune () =
    match Queue.peek_opt t.write_buffer with
    | Some release when release <= now -> ignore (Queue.pop t.write_buffer); prune ()
    | _ -> ()
  in
  prune ();
  let start =
    if Queue.length t.write_buffer < t.write_buffer_entries then now
    else begin
      (* buffer full: stall until the oldest entry frees *)
      let release = Queue.pop t.write_buffer in
      let stall = Float.max 0. (release -. now) in
      t.mem_stall <- t.mem_stall +. stall;
      now +. stall
    end
  in
  Queue.push (start +. write_cycles) t.write_buffer;
  (* the write still occupies a bandwidth slot *)
  t.mem_stall <- t.mem_stall +. t.covered_miss_cycles

let access_raw t ~addr ~size ~op =
  t.mem_instr_count <- t.mem_instr_count + 1;
  retire t 1;
  if not (Tlb.access t.tlb addr) then
    t.tlb_stall <- t.tlb_stall +. float_of_int t.p.tlb_miss_cycles;
  match Hierarchy.access_classified_raw t.hierarchy ~addr ~size ~op with
  | `L1 -> t.l1_hits <- t.l1_hits + 1
  | `L2 ->
    t.l2_hits <- t.l2_hits + 1;
    t.l2_stall <- t.l2_stall +. t.l2_visible_cycles
  | `Mem -> (
    t.mem_accesses <- t.mem_accesses + 1;
    match (op, t.write_latency_cycles) with
    | Access.Write, Some write_cycles -> posted_write t write_cycles
    | (Access.Read | Access.Write), _ ->
      let line = addr / 64 in
      if stream_covered t line then begin
        t.covered_misses <- t.covered_misses + 1;
        t.mem_stall <- t.mem_stall +. t.covered_miss_cycles
      end
      else demand_miss t)


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

let report t =
  (* Close any open cluster so its latency is not lost. *)
  let pending = if t.cluster_open then 1 else 0 in
  let mem_stall =
    t.mem_stall
    +.
    if pending = 1 then
      Float.max 0. (t.mem_latency_cycles -. t.rob_hide_cycles)
    else 0.
  in
  let cycles = t.base_cycles +. t.l2_stall +. mem_stall +. t.tlb_stall in
  {
    instructions = t.instr_count;
    mem_instructions = t.mem_instr_count;
    cycles;
    base_cycles = t.base_cycles;
    l2_stall_cycles = t.l2_stall;
    mem_stall_cycles = mem_stall;
    tlb_stall_cycles = t.tlb_stall;
    runtime_ns = cycles /. t.p.clock_ghz;
    ipc =
      (if cycles > 0. then float_of_int t.instr_count /. cycles else 0.);
    l1_hits = t.l1_hits;
    l2_hits = t.l2_hits;
    mem_accesses = t.mem_accesses;
    miss_clusters = t.clusters + pending;
    tlb_misses = Tlb.misses t.tlb;
  }

let mem_latency_ns t = t.mem_latency_ns
