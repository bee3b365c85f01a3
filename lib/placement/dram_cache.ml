module Access = Nvsc_memtrace.Access
module Technology = Nvsc_nvram.Technology
module Cache = Nvsc_cachesim.Cache
module Cache_params = Nvsc_cachesim.Cache_params

type t = {
  page_bytes : int;
  line_bytes : int;
  bus_ns_per_byte : float;
  tech : Technology.t;
  dram : Technology.t;
  cache : Cache.t; (* "lines" are pages *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable fills : int;
  mutable dirty_writebacks : int;
  (* one-element float array: an unboxed accumulator.  A mutable [float]
     field in this mixed record would box a fresh float on every
     accumulation (the access hot path). *)
  latency_sum : float array;
  mutable dram_traffic_bytes : int;
  mutable nvram_traffic_bytes : int;
  mutable nvram_line_writes : int;
}

let create ?(page_bytes = 4096) ?(dram_pages = 2048) ?(associativity = 8)
    ?(bus_gb_per_s = 12.8) ~tech () =
  if not (Technology.is_nvram tech) then
    invalid_arg "Dram_cache.create: backing store must be NVRAM";
  if dram_pages <= 0 then invalid_arg "Dram_cache.create: dram_pages";
  if associativity <= 0 then invalid_arg "Dram_cache.create: associativity";
  (* round the capacity up to a whole number of sets *)
  let dram_pages =
    (dram_pages + associativity - 1) / associativity * associativity
  in
  (* Built directly rather than through [Cache_params.make]: the DRAM
     budget comes from application footprints, so the set count is
     generally not a power of two ([make] rejects that; [Cache] keeps a
     guarded div/mod path for exactly this case). *)
  let params =
    {
      Cache_params.name = "dram-page-cache";
      size_bytes = page_bytes * dram_pages;
      associativity;
      line_bytes = page_bytes;
      write_miss = Cache_params.Write_allocate;
    }
  in
  {
    page_bytes;
    line_bytes = 64;
    bus_ns_per_byte = 1.0 /. bus_gb_per_s;
    tech;
    dram = Technology.get Technology.DDR3;
    cache = Cache.create params;
    accesses = 0;
    hits = 0;
    misses = 0;
    fills = 0;
    dirty_writebacks = 0;
    latency_sum = [| 0. |];
    dram_traffic_bytes = 0;
    nvram_traffic_bytes = 0;
    nvram_line_writes = 0;
  }

let page_fill_ns t =
  float_of_int t.page_bytes *. t.bus_ns_per_byte

let writeback_page t =
  t.dirty_writebacks <- t.dirty_writebacks + 1;
  t.nvram_traffic_bytes <- t.nvram_traffic_bytes + t.page_bytes;
  t.nvram_line_writes <- t.nvram_line_writes + (t.page_bytes / t.line_bytes)

let access_raw t ~addr ~size ~op =
  t.accesses <- t.accesses + 1;
  let page = addr / t.page_bytes in
  let e =
    match op with
    | Access.Read -> Cache.read t.cache ~line:page
    | Access.Write -> Cache.write t.cache ~line:page
  in
  t.dram_traffic_bytes <- t.dram_traffic_bytes + size;
  if Cache.Effect.hit e then begin
    t.hits <- t.hits + 1;
    t.latency_sum.(0) <- t.latency_sum.(0) +. t.dram.Technology.read_latency_ns
  end
  else begin
    t.misses <- t.misses + 1;
    (* the fill brings the whole page out of NVRAM *)
    t.fills <- t.fills + 1;
    t.nvram_traffic_bytes <- t.nvram_traffic_bytes + t.page_bytes;
    t.dram_traffic_bytes <- t.dram_traffic_bytes + t.page_bytes;
    let miss_latency =
      t.tech.Technology.read_latency_ns +. page_fill_ns t
    in
    t.latency_sum.(0) <- t.latency_sum.(0) +. miss_latency;
    if Cache.Effect.has_writeback e then writeback_page t
  end

let consume t batch ~first ~n =
  let module Sink = Nvsc_memtrace.Sink in
  Sink.Batch.check_slice batch ~first ~n;
  for i = first to first + n - 1 do
    access_raw t ~addr:(Sink.Batch.addr batch i) ~size:(Sink.Batch.size batch i)
      ~op:(Sink.Batch.op batch i)
  done

let sink ?name t = Nvsc_memtrace.Sink.create ?name (consume t)

let drain t = Cache.flush_dirty t.cache (fun _ -> writeback_page t)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  hit_rate : float;
  fills : int;
  dirty_writebacks : int;
  avg_latency_ns : float;
  dram_traffic_bytes : int;
  nvram_traffic_bytes : int;
  nvram_line_writes : int;
}

let stats (t : t) =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.misses;
    hit_rate =
      (if t.accesses = 0 then 0.
       else float_of_int t.hits /. float_of_int t.accesses);
    fills = t.fills;
    dirty_writebacks = t.dirty_writebacks;
    avg_latency_ns =
      (if t.accesses = 0 then 0.
       else t.latency_sum.(0) /. float_of_int t.accesses);
    dram_traffic_bytes = t.dram_traffic_bytes;
    nvram_traffic_bytes = t.nvram_traffic_bytes;
    nvram_line_writes = t.nvram_line_writes;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "%d accesses, hit rate %.2f, %d fills, %d dirty writebacks, avg latency \
     %.1fns, DRAM traffic %a, NVRAM traffic %a (%d line writes)"
    s.accesses s.hit_rate s.fills s.dirty_writebacks s.avg_latency_ns
    Nvsc_util.Units.pp_bytes s.dram_traffic_bytes Nvsc_util.Units.pp_bytes
    s.nvram_traffic_bytes s.nvram_line_writes
