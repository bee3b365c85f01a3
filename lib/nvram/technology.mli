(** Memory-technology models (paper §II and Table IV).

    The paper divides NVRAMs into three categories:
    - category 1: long read {e and} write latencies (PCRAM, Flash);
    - category 2: long write latency, DRAM-like reads (STTRAM);
    - category 3: performance close to DRAM (RRAM) — immature, out of the
      paper's scope but modelled for completeness.

    Latencies are the paper's Table IV values.  Cell currents follow the
    paper's §IV upper-bound assumptions: PCRAM set current is taken equal
    to its reset current, and STTRAM/MRAM reuse PCRAM's read/write currents
    (40 mA / 150 mA) because published figures were unavailable. *)

type tech = DDR3 | PCRAM | STTRAM | MRAM | RRAM | Flash

type category =
  | Cat1_long_read_write
  | Cat2_long_write
  | Cat3_dram_like
  | Volatile  (** DRAM itself *)

type t = {
  tech : tech;
  name : string;
  category : category;
  read_latency_ns : float;
  write_latency_ns : float;
  perf_sim_latency_ns : float;
      (** single latency used by the performance simulator, which does not
          distinguish reads from writes (paper §V takes the write
          latency, making the result a performance lower bound) *)
  read_current_ma : float;
  write_current_ma : float;
  needs_refresh : bool;
  standby_power_rel : float;
      (** background (standby) power relative to DRAM's; 0 for NVRAM whose
          cells neither leak nor refresh *)
  write_endurance : float;  (** writes per cell before wear-out *)
  non_volatile : bool;
}

val get : tech -> t

val all : t list
(** Every modelled technology, DDR3 first. *)

val paper_set : t list
(** The four technologies of the paper's evaluation: DDR3, PCRAM, STTRAM,
    MRAM. *)

val of_string : string -> t option
(** Case-insensitive name lookup ("ddr3", "pcram", ...). *)

val is_nvram : t -> bool

val nvram_of_string : string -> (t, string) result
(** {!of_string} restricted to non-volatile technologies — the NVRAM half
    of a hybrid memory.  The error names the paper's NVRAM technologies
    (PCRAM, STTRAM, MRAM). *)

val pp : Format.formatter -> t -> unit
val pp_category : Format.formatter -> category -> unit
