(** Per-object, per-iteration access accounting.

    The paper evaluates its three metrics — read/write ratio, reference
    rate, object size — "at each time step of the main computation" and
    compares across time steps (§II, §VII-C).  This module stores read and
    write counts per (object, iteration) pair.  Iteration 0 stands for the
    pre-computing and post-processing phases combined, matching the 0 label
    in the paper's figure 7; main-loop iterations are numbered from 1.

    Storage is one flat plane per iteration and direction, indexed by
    object id, and the current iteration's planes are cached, so
    {!record} is one bounds test and one increment.  Totals
    ({!total_reads}, {!grand_total}, {!tracked_objects}, ...) are summed
    over the planes when queried. *)

type t

val create : unit -> t

val set_iteration : t -> int -> unit
(** Select the iteration subsequent {!record} calls are charged to.
    Negative iterations are rejected. *)

val iteration : t -> int

val record : t -> obj_id:int -> op:Access.op -> unit
(** Charge one access to [obj_id] in the current iteration.  Raises
    [Invalid_argument] on a negative id. *)

val record_n : t -> obj_id:int -> op:Access.op -> n:int -> unit
(** [n] accesses at once; [n = 0] records nothing.  Raises
    [Invalid_argument] on a negative [n]. *)

val reads : t -> obj_id:int -> iter:int -> int
(** 0 when the object or iteration was never touched (negative ids and
    iterations included). *)

val writes : t -> obj_id:int -> iter:int -> int

val iteration_reads : t -> iter:int -> int
(** All reads charged to iteration [iter], over every object. *)

val iteration_writes : t -> iter:int -> int

val total_reads : t -> obj_id:int -> int
val total_writes : t -> obj_id:int -> int

val grand_total : t -> int
(** All recorded accesses across every object and iteration. *)

val iterations_touched : t -> obj_id:int -> int list
(** Sorted iteration indices in which the object was referenced. *)

val touched_in_main_loop : t -> obj_id:int -> bool
(** True when any iteration >= 1 recorded an access. *)

val max_iteration : t -> int

val tracked_objects : t -> int list
(** Sorted object ids with at least one recorded access. *)
