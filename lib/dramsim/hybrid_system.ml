module Access = Nvsc_memtrace.Access
module Technology = Nvsc_nvram.Technology

type side = Dram_side | Nvram_side

type t = {
  dram : Controller.t;
  nvram : Controller.t;
  placement : int -> side;
  mutable accesses : int;
  mutable to_nvram : int;
  mutable nvram_writes : int;
  mutable writes : int;
}

let half_org org =
  Org.make ~ranks:(Stdlib.max 1 (org.Org.ranks / 2)) ~banks:org.Org.banks
    ~rows:org.Org.rows ~cols:org.Org.cols
    ~device_width_bits:org.Org.device_width_bits
    ~bus_width_bits:org.Org.bus_width_bits ~line_bytes:org.Org.line_bytes ()

let create ?(org = Org.paper) ?scheme ?window ~nvram ~placement () =
  if not (Technology.is_nvram nvram) then
    invalid_arg "Hybrid_system.create: nvram side must be an NVRAM technology";
  let side_org = half_org org in
  {
    dram =
      Controller.create ~org:side_org ?scheme ?window
        ~tech:(Technology.get Technology.DDR3) ();
    nvram = Controller.create ~org:side_org ?scheme ?window ~tech:nvram ();
    placement;
    accesses = 0;
    to_nvram = 0;
    nvram_writes = 0;
    writes = 0;
  }

let access_ref t ~addr ~(op : Access.op) =
  t.accesses <- t.accesses + 1;
  let is_write = op = Access.Write in
  if is_write then t.writes <- t.writes + 1;
  match t.placement addr with
  | Dram_side -> Controller.submit_ref t.dram ~addr ~op
  | Nvram_side ->
    t.to_nvram <- t.to_nvram + 1;
    if is_write then t.nvram_writes <- t.nvram_writes + 1;
    Controller.submit_ref t.nvram ~addr ~op

let access t (a : Access.t) = access_ref t ~addr:a.addr ~op:a.op

let consume t batch ~first ~n =
  let module Batch = Nvsc_memtrace.Sink.Batch in
  for i = first to first + n - 1 do
    access_ref t ~addr:(Batch.addr batch i) ~op:(Batch.op batch i)
  done

let sink ?name t = Nvsc_memtrace.Sink.create ?name (consume t)

type stats = {
  dram : Controller.stats;
  nvram : Controller.stats;
  accesses : int;
  nvram_fraction : float;
  nvram_write_fraction : float;
  elapsed_ns : float;
  total_energy_nj : float;
  avg_power_w : float;
  avg_latency_ns : float;
}

let stats (t : t) =
  let d = Controller.stats t.dram in
  let n = Controller.stats t.nvram in
  (* The sides proceed concurrently; the joint run lasts as long as the
     busier side.  Each side's background energy is re-charged over the
     joint makespan (its circuitry is powered for the whole run). *)
  let elapsed = Float.max d.Controller.elapsed_ns n.Controller.elapsed_ns in
  let re_background (s : Controller.stats) =
    if s.Controller.elapsed_ns > 0. then
      s.Controller.background_energy_nj /. s.Controller.elapsed_ns *. elapsed
    else s.Controller.background_energy_nj
  in
  let dynamic (s : Controller.stats) =
    s.Controller.burst_energy_nj +. s.Controller.act_pre_energy_nj
    +. s.Controller.refresh_energy_nj
  in
  let total = dynamic d +. dynamic n +. re_background d +. re_background n in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let latency =
    if t.accesses = 0 then 0.
    else
      ((float_of_int d.Controller.accesses *. d.Controller.avg_latency_ns)
      +. (float_of_int n.Controller.accesses *. n.Controller.avg_latency_ns))
      /. float_of_int t.accesses
  in
  {
    dram = d;
    nvram = n;
    accesses = t.accesses;
    nvram_fraction = frac t.to_nvram t.accesses;
    nvram_write_fraction = frac t.nvram_writes t.writes;
    elapsed_ns = elapsed;
    total_energy_nj = total;
    avg_power_w = (if elapsed > 0. then total /. elapsed else 0.);
    avg_latency_ns = latency;
  }

let compare_designs ?(org = Org.paper) ?scheme ?window ~nvram ~placement
    ~replay () =
  (* all-DRAM and all-NVRAM at full capacity *)
  let single tech =
    let c = Controller.create ~org ?scheme ?window ~tech () in
    let s = Controller.sink ~name:("all-" ^ tech.Technology.name) c in
    replay s;
    Nvsc_memtrace.Sink.flush s;
    Controller.stats c
  in
  let d = single (Technology.get Technology.DDR3) in
  let n = single nvram in
  let h = create ~org ?scheme ?window ~nvram ~placement () in
  let hsink = sink ~name:"hybrid" h in
  replay hsink;
  Nvsc_memtrace.Sink.flush hsink;
  let hs = stats h in
  let base = d.Controller.avg_power_w in
  ( [
      ("all-DRAM", 1.0, d.Controller.avg_latency_ns);
      ( "all-" ^ nvram.Technology.name,
        n.Controller.avg_power_w /. base,
        n.Controller.avg_latency_ns );
      ("hybrid", hs.avg_power_w /. base, hs.avg_latency_ns);
    ],
    hs )
