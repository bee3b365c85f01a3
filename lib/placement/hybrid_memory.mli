(** Horizontal hybrid DRAM + NVRAM memory model (the paper's §II second
    design: both memories side by side behind the bus, with data movement
    possible between them).

    Holds a placement of items across the two memories, enforces
    capacities, and estimates the energy and performance consequences of a
    placement: standby-power savings scale with the bytes resident in
    NVRAM; each read/write served by NVRAM pays that technology's latency
    and write-energy premium over DRAM. *)

type location = Dram | Nvram

type t

val create :
  dram_bytes:int -> nvram_bytes:int -> tech:Nvsc_nvram.Technology.t -> t
(** [tech] is the NVRAM half's technology; capacities must be positive. *)

val tech : t -> Nvsc_nvram.Technology.t

val place : t -> Item.t -> location -> unit
(** Raises [Invalid_argument] if the item is already placed or the target
    memory lacks capacity. *)

val migrate : t -> Item.t -> location -> unit
(** Move an already-placed item; counts migration traffic.  No-op when the
    item is already there. *)

val location : t -> Item.t -> location option

val used_bytes : t -> location -> int
val free_bytes : t -> location -> int
val items_in : t -> location -> Item.t list

val migrations : t -> int
val migrated_bytes : t -> int

(** Placement quality estimate, normalised against an all-DRAM system. *)
type assessment = {
  nvram_fraction : float;  (** fraction of placed bytes in NVRAM *)
  standby_saving : float;
      (** fraction of total standby power eliminated (NVRAM standby ~ 0) *)
  write_traffic_to_nvram : float;
      (** fraction of all writes that land in NVRAM (endurance and
          performance exposure) *)
  read_traffic_to_nvram : float;
  avg_read_latency_ns : float;  (** traffic-weighted *)
  avg_write_latency_ns : float;
  slowdown_bound : float;
      (** the placement's traffic-weighted mean device latency over the
          all-DRAM mean: every item's references, counted before the
          caches, at its memory's Table IV read or write latency.  It is
          not a bound: it ignores queueing and the split into two
          half-width channels, and [Nvsc_dramsim.Hybrid_system] simulates
          1.03–1.18x mean latency for the paper applications' static plans
          where this ratio is 1.00–1.02x.  {!pp_assessment} still labels
          it "slowdown bound". *)
}

val assess : t -> assessment

val pp_assessment : Format.formatter -> assessment -> unit
