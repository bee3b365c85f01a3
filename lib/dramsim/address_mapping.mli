(** Physical-address decomposition into (rank, bank, row, column).

    DRAMSim2 offers several interleaving schemes; the three that matter for
    this study are reproduced.  The choice controls how much rank/bank-level
    parallelism a streaming access pattern enjoys versus how much row-buffer
    locality it keeps. *)

type scheme =
  | Row_bank_rank_col
      (** address bits, high to low: row | bank | rank | column.  A
          sequential stream sweeps a whole row in one (rank,bank) before
          moving to the next rank: strong row locality, rank parallelism at
          row granularity.  DRAMSim2's default-like scheme; ours too. *)
  | Row_rank_bank_col
      (** row | rank | bank | column: like the above with bank and rank
          swapped; sequential rows land in neighbouring banks of the same
          rank first. *)
  | Line_interleave
      (** row | column-high | bank | rank | line-offset: consecutive cache
          lines round-robin across ranks then banks — maximal parallelism,
          minimal row locality. *)

type coords = { rank : int; bank : int; row : int; col : int }

val decode : scheme -> Org.t -> int -> coords
(** [decode scheme org addr] maps a byte address (wrapped modulo device
    capacity) to device coordinates.  The column is the line-granularity
    column index (column of the first beat of the line burst). *)

val decode_packed : scheme -> Org.t -> int -> int
(** Like {!decode} but allocation-free: returns
    [row * total_banks + rank * banks + bank] as one immediate int (the
    column, which never influences line-granularity timing, is dropped).
    Agrees with {!decode} on rank, bank and row for every address. *)

type plan
(** The shifts and masks of one [(scheme, org)] pair, computed once. *)

val plan : scheme -> Org.t -> plan

val decode_plan : plan -> int -> int
(** [decode_plan (plan scheme org) addr = decode_packed scheme org addr]
    for every [addr]: shift-and-mask on non-negative addresses, division
    arithmetic on negative ones.  The controller's per-transaction
    decode. *)

val scheme_name : scheme -> string

val all_schemes : scheme list
