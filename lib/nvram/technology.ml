type tech = DDR3 | PCRAM | STTRAM | MRAM | RRAM | Flash

type category =
  | Cat1_long_read_write
  | Cat2_long_write
  | Cat3_dram_like
  | Volatile

type t = {
  tech : tech;
  name : string;
  category : category;
  read_latency_ns : float;
  write_latency_ns : float;
  perf_sim_latency_ns : float;
  read_current_ma : float;
  write_current_ma : float;
  needs_refresh : bool;
  standby_power_rel : float;
  write_endurance : float;
  non_volatile : bool;
}

(* PCRAM currents from the paper (§IV): 40 mA read, 150 mA write; the same
   values stand in for STTRAM and MRAM as an upper bound. DRAM currents are
   chosen so that NVRAM burst energy per bit exceeds DRAM's (the paper notes
   PCRAM reset energy/bit is ~50x DRAM's write energy/bit at the cell level;
   at array granularity the peripheral circuitry dominates, so the
   effective controller-visible ratio is far smaller). *)
let ddr3 =
  {
    tech = DDR3;
    name = "DDR3";
    category = Volatile;
    read_latency_ns = 10.;
    write_latency_ns = 10.;
    perf_sim_latency_ns = 10.;
    read_current_ma = 25.;
    write_current_ma = 30.;
    needs_refresh = true;
    standby_power_rel = 1.0;
    write_endurance = 1e16;
    non_volatile = false;
  }

let pcram =
  {
    tech = PCRAM;
    name = "PCRAM";
    category = Cat1_long_read_write;
    read_latency_ns = 20.;
    write_latency_ns = 100.;
    perf_sim_latency_ns = 100.;
    read_current_ma = 40.;
    write_current_ma = 150.;
    needs_refresh = false;
    standby_power_rel = 0.;
    write_endurance = 10. ** 8.8 (* mid of the paper's 1e8..1e9.7 range *);
    non_volatile = true;
  }

let sttram =
  {
    tech = STTRAM;
    name = "STTRAM";
    category = Cat2_long_write;
    read_latency_ns = 10.;
    write_latency_ns = 20.;
    perf_sim_latency_ns = 20.;
    read_current_ma = 40.;
    write_current_ma = 150.;
    needs_refresh = false;
    standby_power_rel = 0.;
    write_endurance = 1e15;
    non_volatile = true;
  }

let mram =
  {
    tech = MRAM;
    name = "MRAM";
    category = Cat2_long_write;
    read_latency_ns = 12.;
    write_latency_ns = 12.;
    perf_sim_latency_ns = 12.;
    read_current_ma = 40.;
    write_current_ma = 150.;
    needs_refresh = false;
    standby_power_rel = 0.;
    write_endurance = 1e15;
    non_volatile = true;
  }

let rram =
  {
    tech = RRAM;
    name = "RRAM";
    category = Cat3_dram_like;
    read_latency_ns = 10.;
    write_latency_ns = 10.;
    perf_sim_latency_ns = 10.;
    read_current_ma = 30.;
    write_current_ma = 60.;
    needs_refresh = false;
    standby_power_rel = 0.;
    write_endurance = 1e11;
    non_volatile = true;
  }

let flash =
  {
    tech = Flash;
    name = "Flash";
    category = Cat1_long_read_write;
    read_latency_ns = 25_000.;
    write_latency_ns = 200_000.;
    perf_sim_latency_ns = 200_000.;
    read_current_ma = 20.;
    write_current_ma = 50.;
    needs_refresh = false;
    standby_power_rel = 0.;
    write_endurance = 1e5;
    non_volatile = true;
  }

let get = function
  | DDR3 -> ddr3
  | PCRAM -> pcram
  | STTRAM -> sttram
  | MRAM -> mram
  | RRAM -> rram
  | Flash -> flash

let all = [ ddr3; pcram; sttram; mram; rram; flash ]
let paper_set = [ ddr3; pcram; sttram; mram ]

let of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun t -> String.lowercase_ascii t.name = s) all

let is_nvram t = t.non_volatile

let nvram_of_string s =
  match of_string s with
  | Some t when is_nvram t -> Ok t
  | _ ->
    Error
      (Nvsc_util.Cli.unknown ~what:"NVRAM technology"
         ~known:(List.filter_map
                   (fun t -> if is_nvram t then Some t.name else None)
                   paper_set)
         s)

let pp_category fmt = function
  | Cat1_long_read_write -> Format.pp_print_string fmt "category 1 (long R/W)"
  | Cat2_long_write -> Format.pp_print_string fmt "category 2 (long W)"
  | Cat3_dram_like -> Format.pp_print_string fmt "category 3 (DRAM-like)"
  | Volatile -> Format.pp_print_string fmt "volatile DRAM"

let pp fmt t =
  Format.fprintf fmt "%s (%a): read %.0fns write %.0fns endurance %.1e" t.name
    pp_category t.category t.read_latency_ns t.write_latency_ns
    t.write_endurance
