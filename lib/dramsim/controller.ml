module Access = Nvsc_memtrace.Access
module Technology = Nvsc_nvram.Technology

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
  mutable latency : float; (* the last transaction's, for [hist_add_slow] *)
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
  (* Exact latency histogram: an open-addressing table of distinct
     latency -> count in flat arrays (a few dozen distinct values per
     trace), plus a memo of the last slot hit.  An empty slot has count
     0 and key nan, which equals no latency, so the memo needs no
     occupancy check. *)
  mutable hist_keys : float array;
  mutable hist_counts : int array;
  mutable hist_size : int; (* distinct latency values recorded *)
  mutable hist_last : int;
  plan : Address_mapping.plan;
  (* hot-path constants hoisted out of the per-access kernel: [Org]
     dimensions are powers of two so rank extraction is a shift, and the
     energy/penalty terms are fixed products of the timing/power
     parameters — evaluating them once keeps the float results
     bit-identical (same operations, same order) while dropping an
     integer division and two multiplies per access *)
  banks_shift : int;
  nbanks_shift : int;
  e_burst_read_nj : float;
  e_burst_write_nj : float;
  penalty_over_open_ns : float; (* row miss over an open row: tRP + tRCD *)
  penalty_no_open_ns : float; (* row miss on an idle bank: tRCD *)
}

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let hist_initial = 64
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
        latency = 0.;
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
    hist_keys = Array.make hist_initial Float.nan;
    hist_counts = Array.make hist_initial 0;
    hist_size = 0;
    hist_last = 0;
    plan = Address_mapping.plan scheme org;
    banks_shift = log2 org.Org.banks;
    nbanks_shift = log2 nbanks;
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

(* Linear probe for [lat]'s slot: its own, or the first empty one.
   Latencies are at least tCAS + tBURST, finite and never -0, so float
   equality is bit equality.  [Int64.bits_of_float] is an unboxed
   primitive: hashing allocates nothing. *)
let[@inline] hist_find (keys : float array) (counts : int array) (lat : float) =
  let mask = Array.length keys - 1 in
  let b = Int64.to_int (Int64.bits_of_float lat) in
  let h = (b lxor (b lsr 31)) * 0x2545F4914F6CDD1D in
  let s = ref ((h lsr 17) land mask) in
  while
    Array.unsafe_get counts !s > 0 && Array.unsafe_get keys !s <> lat
  do
    s := (!s + 1) land mask
  done;
  !s

(* Double the table once it is half full. *)
let hist_grow t =
  let keys = t.hist_keys and counts = t.hist_counts in
  let cap = 2 * Array.length keys in
  let keys' = Array.make cap Float.nan and counts' = Array.make cap 0 in
  for i = 0 to Array.length keys - 1 do
    if counts.(i) > 0 then begin
      let s = hist_find keys' counts' keys.(i) in
      keys'.(s) <- keys.(i);
      counts'.(s) <- counts.(i)
    end
  done;
  t.hist_keys <- keys';
  t.hist_counts <- counts'

(* Out of line, so the latency comes through [t.fl] rather than as a
   boxed float argument. *)
let[@inline never] hist_add_slow t =
  let lat = t.fl.latency in
  let s = hist_find t.hist_keys t.hist_counts lat in
  if t.hist_counts.(s) > 0 then begin
    t.hist_counts.(s) <- t.hist_counts.(s) + 1;
    t.hist_last <- s
  end
  else begin
    t.hist_keys.(s) <- lat;
    t.hist_counts.(s) <- 1;
    t.hist_size <- t.hist_size + 1;
    if 2 * t.hist_size > Array.length t.hist_keys then begin
      hist_grow t;
      t.hist_last <- hist_find t.hist_keys t.hist_counts lat
    end
    else t.hist_last <- s
  end

(* Consecutive transactions repeat the previous latency most of the
   time: one float compare against the memo slot, then a count bump. *)
let[@inline] hist_add t (lat : float) =
  let s = t.hist_last in
  if Array.unsafe_get t.hist_keys s = lat then
    Array.unsafe_set t.hist_counts s (Array.unsafe_get t.hist_counts s + 1)
  else begin
    t.fl.latency <- lat;
    hist_add_slow t
  end

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
  let latency = bus_end -. arrival in
  fl.latency_sum <- fl.latency_sum +. latency;
  hist_add t latency;
  let slot = t.inflight_head + t.inflight_n in
  let slot = if slot >= t.window then slot - t.window else slot in
  Array.unsafe_set t.inflight slot bus_end;
  t.inflight_n <- t.inflight_n + 1

(* The access kernel, on flat coordinates ([bank] = rank * banks + bank):
   the FCFS path reaches it via [Address_mapping.decode_plan] without
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
    let packed = Address_mapping.decode_plan t.plan addr in
    (* [packed] is negative only for some negative addresses, where
       truncating division keeps the reference arithmetic *)
    if packed >= 0 then
      issue_flat t op
        ~bank:(packed land (t.nbanks - 1))
        ~row:(packed lsr t.nbanks_shift)
    else issue_flat t op ~bank:(packed mod t.nbanks) ~row:(packed / t.nbanks)
  | Fr_fcfs depth ->
    let coords = Address_mapping.decode t.scheme t.org addr in
    t.reorder <- t.reorder @ [ { op; coords } ];
    if List.length t.reorder >= depth then schedule_one t

let consume t batch ~first ~n =
  let module Batch = Nvsc_memtrace.Sink.Batch in
  Batch.check_slice batch ~first ~n;
  let addrs = Batch.addrs batch and ops = Batch.ops batch in
  for i = first to first + n - 1 do
    let op =
      if Bigarray.Array1.unsafe_get ops i <> '\000' then Access.Write
      else Access.Read
    in
    submit_ref t ~addr:(Bigarray.Array1.unsafe_get addrs i) ~op
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

(* Exact percentiles from the histogram: sort the distinct latency
   values and walk the cumulative counts to the order statistics at
   floor and ceil of p * (n - 1).  They are the elements a full sort of
   all n values would put there, and the interpolation is the same
   expression, so the results are bit-identical to sorting every
   transaction. *)
let latency_percentiles (t : t) =
  let n = t.accesses in
  if n = 0 then (0., 0., 0.)
  else begin
    let entries = ref [] in
    Array.iteri
      (fun i c -> if c > 0 then entries := (t.hist_keys.(i), c) :: !entries)
      t.hist_counts;
    let sorted =
      Array.of_list
        (List.sort (fun (a, _) (b, _) -> Float.compare a b) !entries)
    in
    (* the [k]-th smallest latency, 0-based *)
    let nth k =
      let rec go i below =
        let key, c = sorted.(i) in
        if k < below + c then key else go (i + 1) (below + c)
      in
      go 0 0
    in
    let at p =
      let rank = p *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then nth lo
      else begin
        let frac = rank -. float_of_int lo in
        (nth lo *. (1. -. frac)) +. (nth hi *. frac)
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
