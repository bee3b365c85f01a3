(* Reference implementation: the FCFS/FR-FCFS memory controller the
   optimized [Nvsc_dramsim.Controller] replaced (division-based address
   decode, a per-transaction latency buffer heap-sorted for the
   percentiles).  Oracle for the differential qcheck properties — do not
   optimize. *)

module Org = Nvsc_dramsim.Org
module Timing = Nvsc_dramsim.Timing
module Power_params = Nvsc_dramsim.Power_params
module Address_mapping = Nvsc_dramsim.Address_mapping

module Access = Nvsc_memtrace.Access
module Technology = Nvsc_nvram.Technology

(* Allocation-free decode for the controller's FCFS hot path: the same
   rank/bank/row as [decode], packed as row * total_banks + flat_bank
   (flat_bank = rank * banks + bank).  The column never influences timing
   at line granularity, so it is dropped rather than packed. *)
let decode_packed scheme org addr =
  let line = addr / org.Org.line_bytes in
  let lines_per_row = Org.lines_per_row org in
  let line = line mod (org.ranks * org.banks * org.rows * lines_per_row) in
  let nbanks = org.ranks * org.banks in
  match (scheme : Address_mapping.scheme) with
  | Row_bank_rank_col ->
    let rest = line / lines_per_row in
    let rank = rest mod org.ranks in
    let rest = rest / org.ranks in
    let bank = rest mod org.banks in
    let row = rest / org.banks in
    (row * nbanks) + (rank * org.banks) + bank
  | Row_rank_bank_col ->
    let rest = line / lines_per_row in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let rank = rest mod org.ranks in
    let row = rest / org.ranks in
    (row * nbanks) + (rank * org.banks) + bank
  | Line_interleave ->
    let rank = line mod org.ranks in
    let rest = line / org.ranks in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let row = rest / lines_per_row in
    (row * nbanks) + (rank * org.banks) + bank

type row_policy = Open_page | Closed_page

type scheduler = Fcfs | Fr_fcfs of int

type pending = { op : Access.op; coords : Address_mapping.coords }

(* All-float sub-record: OCaml stores an all-float record flat, so the
   per-access accumulations below mutate in place.  As mutable [float]
   fields of the mixed record [t] each assignment would box a fresh
   float — six allocations per access on the hot path. *)
type floats = {
  mutable bus_free : float;
  mutable now : float;
  mutable burst_energy_nj : float;
  mutable act_pre_energy_nj : float;
  mutable refresh_energy_nj : float;
  mutable latency_sum : float;
  (* kernel constants, stored in this flat all-float record so the hot
     path reads them unboxed off a pointer it already holds *)
  c_t_cas_ns : float;
  c_t_burst_ns : float;
  c_t_wr_ns : float;
  c_e_act_pre_nj : float;
}

type t = {
  org : Org.t;
  scheme : Address_mapping.scheme;
  tech : Technology.t;
  timing : Timing.t;
  power : Power_params.t;
  window : int;
  nbanks : int; (* ranks * banks *)
  row_policy : row_policy;
  scheduler : scheduler;
  mutable reorder : pending list; (* oldest first *)
  bank_ready : float array; (* ns; indexed rank * banks + bank *)
  open_row : int array; (* -1 = closed *)
  (* FIFO ring of completion times of outstanding transactions.  Every
     completion is a bus_end, and bus_end is strictly increasing across
     admissions (each burst starts no earlier than the previous burst
     freed the bus), so the ring is sorted: the oldest entry is the
     minimum and the transactions completed by any instant form a
     prefix — admission is O(1), not O(window). *)
  inflight : float array;
  mutable inflight_head : int;
  mutable inflight_n : int;
  next_refresh : float array; (* per rank; infinity for NVRAM *)
  fl : floats;
  mutable accesses : int;
  mutable reads : int;
  mutable writes : int;
  mutable row_hits : int;
  mutable row_misses : int;
  mutable activations : int;
  mutable refreshes : int;
  mutable latencies : float array; (* per-access, for percentiles *)
  mutable latencies_n : int;
  (* hot-path constants hoisted out of the per-access kernel: [Org]
     dimensions are powers of two so rank extraction is a shift, and the
     energy/penalty terms are fixed products of the timing/power
     parameters — evaluating them once keeps the float results
     bit-identical (same operations, same order) while dropping an
     integer division and two multiplies per access *)
  banks_shift : int;
  e_burst_read_nj : float;
  e_burst_write_nj : float;
  penalty_over_open_ns : float; (* row miss over an open row: tRP + tRCD *)
  penalty_no_open_ns : float; (* row miss on an idle bank: tRCD *)
}

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let create ?(org = Org.paper) ?(scheme = Address_mapping.Row_bank_rank_col)
    ?(window = 8) ?(row_policy = Open_page) ?(scheduler = Fcfs) ~tech () =
  if window <= 0 then invalid_arg "Controller.create: window must be positive";
  (match scheduler with
  | Fr_fcfs depth when depth <= 0 ->
    invalid_arg "Controller.create: Fr_fcfs depth must be positive"
  | Fcfs | Fr_fcfs _ -> ());
  let nbanks = Org.total_banks org in
  let timing = Timing.of_tech tech ~org in
  let power = Power_params.of_tech tech ~org in
  {
    org;
    scheme;
    tech;
    timing;
    power;
    window;
    row_policy;
    scheduler;
    nbanks;
    reorder = [];
    bank_ready = Array.make nbanks 0.;
    open_row = Array.make nbanks (-1);
    inflight = Array.make window 0.;
    inflight_head = 0;
    inflight_n = 0;
    next_refresh =
      Array.make org.Org.ranks
        (if tech.Technology.needs_refresh then timing.Timing.t_refi_ns
         else infinity);
    fl =
      {
        bus_free = 0.;
        now = 0.;
        burst_energy_nj = 0.;
        act_pre_energy_nj = 0.;
        refresh_energy_nj = 0.;
        latency_sum = 0.;
        c_t_cas_ns = timing.Timing.t_cas_ns;
        c_t_burst_ns = timing.Timing.t_burst_ns;
        c_t_wr_ns = timing.Timing.t_wr_ns;
        c_e_act_pre_nj = power.Power_params.e_act_pre_nj;
      };
    accesses = 0;
    reads = 0;
    writes = 0;
    row_hits = 0;
    row_misses = 0;
    activations = 0;
    refreshes = 0;
    latencies = Array.make 1024 0.;
    latencies_n = 0;
    banks_shift = log2 org.Org.banks;
    e_burst_read_nj =
      Power_params.burst_read_energy_nj power
        ~t_burst_ns:timing.Timing.t_burst_ns;
    e_burst_write_nj =
      Power_params.burst_write_energy_nj power
        ~t_burst_ns:timing.Timing.t_burst_ns;
    penalty_over_open_ns = Timing.row_miss_penalty_ns timing ~had_open_row:true;
    penalty_no_open_ns = Timing.row_miss_penalty_ns timing ~had_open_row:false;
  }

(* Admission: wait for the earliest completion when the window is full.
   The ring is sorted (see [inflight]), so the earliest completion is the
   head and dropping every transaction completed by [now] pops a prefix —
   constant amortized work per admission. *)
let[@inline] admit t =
  if t.inflight_n = t.window then begin
    let inflight = t.inflight in
    let oldest = Array.unsafe_get inflight t.inflight_head in
    if oldest > t.fl.now then t.fl.now <- oldest;
    let now = t.fl.now in
    let head = ref t.inflight_head and n = ref t.inflight_n in
    while !n > 0 && Array.unsafe_get inflight !head <= now do
      let h = !head + 1 in
      head := if h = t.window then 0 else h;
      decr n
    done;
    t.inflight_head <- !head;
    t.inflight_n <- !n
  end

(* Catch up pending refresh operations on a rank: each one blocks every
   bank of the rank for t_rfc and costs e_refresh.  Split so the
   overwhelmingly common no-refresh-due case is one inlined float
   compare; the catch-up body stays out of line. *)
let[@inline never] refresh_rank_slow t rank upto =
  while t.next_refresh.(rank) <= upto do
    let start = t.next_refresh.(rank) in
    let finish = start +. t.timing.Timing.t_rfc_ns in
    let base = rank * t.org.Org.banks in
    for b = base to base + t.org.Org.banks - 1 do
      if t.bank_ready.(b) < finish then t.bank_ready.(b) <- finish
    done;
    t.refreshes <- t.refreshes + 1;
    t.fl.refresh_energy_nj <-
      t.fl.refresh_energy_nj +. t.power.Power_params.e_refresh_nj;
    t.next_refresh.(rank) <- start +. t.timing.Timing.t_refi_ns
  done

let[@inline] refresh_rank t rank upto =
  if t.next_refresh.(rank) <= upto then refresh_rank_slow t rank upto

(* Column access, bus serialisation, energy and latency accounting once
   the row decision has produced [row_ready]; inlined into [issue_flat]. *)
let[@inline] complete t (op : Access.op) ~bank ~arrival ~row_ready =
  let fl = t.fl in
  let cas_done = row_ready +. fl.c_t_cas_ns in
  let bus_start = Float.max cas_done fl.bus_free in
  let bus_end = bus_start +. fl.c_t_burst_ns in
  fl.bus_free <- bus_end;
  t.accesses <- t.accesses + 1;
  (match op with
  | Access.Read ->
    t.reads <- t.reads + 1;
    fl.burst_energy_nj <- fl.burst_energy_nj +. t.e_burst_read_nj;
    Array.unsafe_set t.bank_ready bank bus_end
  | Access.Write ->
    t.writes <- t.writes + 1;
    fl.burst_energy_nj <- fl.burst_energy_nj +. t.e_burst_write_nj;
    (* Write recovery: the cells absorb the data after the burst. *)
    Array.unsafe_set t.bank_ready bank (bus_end +. fl.c_t_wr_ns));
  fl.latency_sum <- fl.latency_sum +. (bus_end -. arrival);
  if t.latencies_n = Array.length t.latencies then begin
    let bigger = Array.make (2 * t.latencies_n) 0. in
    Array.blit t.latencies 0 bigger 0 t.latencies_n;
    t.latencies <- bigger
  end;
  Array.unsafe_set t.latencies t.latencies_n (bus_end -. arrival);
  t.latencies_n <- t.latencies_n + 1;
  let slot = t.inflight_head + t.inflight_n in
  let slot = if slot >= t.window then slot - t.window else slot in
  Array.unsafe_set t.inflight slot bus_end;
  t.inflight_n <- t.inflight_n + 1

(* The access kernel, on flat coordinates ([bank] = rank * banks + bank):
   the FCFS path reaches it via [Address_mapping.decode_packed] without
   materialising a [coords] record. *)
let issue_flat t (op : Access.op) ~bank ~row =
  admit t;
  let fl = t.fl in
  let arrival = fl.now in
  (* [bank] is non-negative on every pipeline path; the division is kept
     for the representable-but-never-produced negative case *)
  refresh_rank t
    (if bank >= 0 then bank lsr t.banks_shift else bank / t.org.Org.banks)
    arrival;
  let start = Float.max arrival (Array.unsafe_get t.bank_ready bank) in
  let row_ready =
    if Array.unsafe_get t.open_row bank = row then begin
      t.row_hits <- t.row_hits + 1;
      start
    end
    else begin
      t.row_misses <- t.row_misses + 1;
      t.activations <- t.activations + 1;
      fl.act_pre_energy_nj <-
        fl.act_pre_energy_nj +. fl.c_e_act_pre_nj;
      let penalty =
        if Array.unsafe_get t.open_row bank >= 0 then t.penalty_over_open_ns
        else t.penalty_no_open_ns
      in
      Array.unsafe_set t.open_row bank row;
      start +. penalty
    end
  in
  (* under the closed-page policy the row is precharged right after the
     column access: the next access always re-activates but never pays
     tRP (the precharge overlaps idle time) *)
  (match t.row_policy with
  | Closed_page -> Array.unsafe_set t.open_row bank (-1)
  | Open_page -> ());
  complete t op ~bank ~arrival ~row_ready

let issue t op (c : Address_mapping.coords) =
  issue_flat t op ~bank:((c.rank * t.org.Org.banks) + c.bank) ~row:c.row

(* FR-FCFS selection: among the buffered transactions, prefer one whose
   bank has its row open (a row hit); ties break to the oldest. *)
let pick_ready t =
  let bank_of (p : pending) = (p.coords.rank * t.org.Org.banks) + p.coords.bank in
  let is_hit p = t.open_row.(bank_of p) = p.coords.row in
  let rec find_hit acc = function
    | [] -> None
    | p :: rest when is_hit p -> Some (p, List.rev_append acc rest)
    | p :: rest -> find_hit (p :: acc) rest
  in
  match find_hit [] t.reorder with
  | Some (p, rest) -> (p, rest)
  | None -> (
    match t.reorder with
    | p :: rest -> (p, rest)
    | [] -> invalid_arg "Controller.pick_ready: empty")

let schedule_one t =
  let p, rest = pick_ready t in
  t.reorder <- rest;
  issue t p.op p.coords

let submit_ref t ~addr ~(op : Access.op) =
  match t.scheduler with
  | Fcfs ->
    let packed = decode_packed t.scheme t.org addr in
    issue_flat t op ~bank:(packed mod t.nbanks) ~row:(packed / t.nbanks)
  | Fr_fcfs depth ->
    let coords = Address_mapping.decode t.scheme t.org addr in
    t.reorder <- t.reorder @ [ { op; coords } ];
    if List.length t.reorder >= depth then schedule_one t

let consume t batch ~first ~n =
  let module Batch = Nvsc_memtrace.Sink.Batch in
  for i = first to first + n - 1 do
    submit_ref t ~addr:(Batch.addr batch i) ~op:(Batch.op batch i)
  done

let sink ?name t = Nvsc_memtrace.Sink.create ?name (consume t)

let flush t =
  while t.reorder <> [] do
    schedule_one t
  done

let elapsed_ns t =
  flush t;
  let m = ref t.fl.bus_free in
  for i = 0 to t.inflight_n - 1 do
    let slot = (t.inflight_head + i) mod t.window in
    if t.inflight.(slot) > !m then m := t.inflight.(slot)
  done;
  !m

type stats = {
  accesses : int;
  reads : int;
  writes : int;
  row_hits : int;
  row_misses : int;
  activations : int;
  refreshes : int;
  elapsed_ns : float;
  burst_energy_nj : float;
  act_pre_energy_nj : float;
  refresh_energy_nj : float;
  background_energy_nj : float;
  total_energy_nj : float;
  avg_power_w : float;
  avg_latency_ns : float;
  p50_latency_ns : float;
  p95_latency_ns : float;
  p99_latency_ns : float;
  bandwidth_gbs : float;
  row_hit_rate : float;
}

(* One sorted copy serves all three percentiles; Float.compare avoids the
   polymorphic-comparison cost on large traces. *)
let latency_percentiles t =
  if t.latencies_n = 0 then (0., 0., 0.)
  else begin
    let sorted = Array.sub t.latencies 0 t.latencies_n in
    Array.sort Float.compare sorted;
    let at p =
      let rank = p *. float_of_int (t.latencies_n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then sorted.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
      end
    in
    (at 0.5, at 0.95, at 0.99)
  end

let stats t =
  let elapsed = elapsed_ns t in
  let p50, p95, p99 = latency_percentiles t in
  let background_energy_nj = t.power.Power_params.p_background_w *. elapsed in
  let total =
    t.fl.burst_energy_nj +. t.fl.act_pre_energy_nj +. t.fl.refresh_energy_nj
    +. background_energy_nj
  in
  let avg_power_w = if elapsed > 0. then total /. elapsed else 0. in
  let bytes = float_of_int (t.accesses * t.org.Org.line_bytes) in
  {
    accesses = t.accesses;
    reads = t.reads;
    writes = t.writes;
    row_hits = t.row_hits;
    row_misses = t.row_misses;
    activations = t.activations;
    refreshes = t.refreshes;
    elapsed_ns = elapsed;
    burst_energy_nj = t.fl.burst_energy_nj;
    act_pre_energy_nj = t.fl.act_pre_energy_nj;
    refresh_energy_nj = t.fl.refresh_energy_nj;
    background_energy_nj;
    total_energy_nj = total;
    avg_power_w;
    avg_latency_ns =
      (if t.accesses = 0 then 0.
       else t.fl.latency_sum /. float_of_int t.accesses);
    p50_latency_ns = p50;
    p95_latency_ns = p95;
    p99_latency_ns = p99;
    bandwidth_gbs = (if elapsed > 0. then bytes /. elapsed else 0.);
    row_hit_rate =
      (if t.accesses = 0 then 0.
       else float_of_int t.row_hits /. float_of_int t.accesses);
  }
