(** Memory-system organisation (paper Table III).

    Defaults: 2 GB of devices organised as 16 ranks x 16 banks, 1024 rows x
    1024 columns per bank, x4 devices behind a 64-bit JEDEC data bus. *)

type t = private {
  ranks : int;
  banks : int;  (** per rank *)
  rows : int;  (** per bank *)
  cols : int;  (** per row *)
  device_width_bits : int;
  bus_width_bits : int;
  line_bytes : int;  (** transaction granularity (cache line) *)
}

val make :
  ?ranks:int ->
  ?banks:int ->
  ?rows:int ->
  ?cols:int ->
  ?device_width_bits:int ->
  ?bus_width_bits:int ->
  ?line_bytes:int ->
  unit ->
  t
(** All parameters must be powers of two; defaults reproduce Table III.
    [t] is private, so every [Org.t] has passed this check: the address
    decode relies on it to turn divisions into shifts. *)

val paper : t

val row_bytes : t -> int
(** Bytes per row across the rank: [cols * bus_width/8]. *)

val lines_per_row : t -> int

val capacity_bytes : t -> int
(** Total addressable capacity. *)

val total_banks : t -> int

val pp : Format.formatter -> t -> unit
