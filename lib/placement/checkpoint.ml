module Technology = Nvsc_nvram.Technology

type target = {
  name : string;
  bandwidth_bytes_per_s : float;
  setup_latency_s : float;
}

let parallel_fs ?(bandwidth_gb_s = 1.5) () =
  {
    name = "parallel-fs";
    bandwidth_bytes_per_s = bandwidth_gb_s *. 1e9;
    setup_latency_s = 5e-3;
  }

let bus_bytes_per_s = 12.8e9

let nvram_local (tech : Technology.t) =
  if not (Technology.is_nvram tech) then
    invalid_arg "Checkpoint.nvram_local: not an NVRAM technology";
  (* cell write bandwidth: one 64-byte line per write latency per bank *)
  let banks = float_of_int 256 in
  let cell_bw = 64. /. (tech.write_latency_ns *. 1e-9) *. banks in
  {
    name = "nvram-" ^ String.lowercase_ascii tech.name;
    bandwidth_bytes_per_s = Float.min bus_bytes_per_s cell_bw;
    setup_latency_s = 1e-6;
  }

let checkpoint_time_s target ~size_bytes =
  if size_bytes < 0 then invalid_arg "Checkpoint.checkpoint_time_s";
  target.setup_latency_s
  +. (float_of_int size_bytes /. target.bandwidth_bytes_per_s)

let young_interval_s ~checkpoint_time_s ~mtbf_s =
  if checkpoint_time_s <= 0. || mtbf_s <= 0. then
    invalid_arg "Checkpoint.young_interval_s";
  sqrt (2. *. checkpoint_time_s *. mtbf_s)

let efficiency ~checkpoint_time_s ~mtbf_s =
  let t = young_interval_s ~checkpoint_time_s ~mtbf_s in
  let overhead = (checkpoint_time_s /. t) +. (t /. (2. *. mtbf_s)) in
  Float.max 0. (Float.min 1. (1. -. overhead))
