(** Plain-text table rendering for experiment reports.

    Every table and figure regenerator prints through this module so output
    is uniform and greppable in EXPERIMENTS.md. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] makes an empty table with the given column
    headers and alignments. *)

val add_row : t -> string list -> unit
(** Adds a row; raises [Invalid_argument] when the arity does not match the
    header. *)

val row_count : t -> int

val pp : Format.formatter -> t -> unit
(** Render with a header rule and column padding. *)

val to_string : t -> string

(** Cell formatting helpers. *)

val cell_f : ?prec:int -> float -> string
(** Fixed-point float cell; infinity renders as ["inf"]. *)

val cell_pct : float -> string
(** Fraction rendered as a percentage with one decimal, e.g. [0.756] ->
    ["75.6%"]. *)

val cell_i : int -> string
val cell_bytes : int -> string
(** Human bytes via {!Units.pp_bytes}. *)
