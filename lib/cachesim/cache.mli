(** A single set-associative, write-back cache level with true-LRU
    replacement.

    The cache operates on line addresses ([byte address / line size]); the
    hierarchy is responsible for splitting byte accesses into line
    accesses.  A lookup returns what traffic the access induces towards the
    next level — a line fill, a dirty write-back of an evicted line, a
    forwarded write (no-write-allocate write miss), or nothing — encoded in
    an immediate {!Effect.t} so the hit and miss paths perform zero heap
    allocations (DESIGN.md "Kernel fast paths"). *)

type t

(** Traffic the access generates toward the next memory level, packed into
    one immediate int.  The filled / forwarded line is always the accessed
    line itself, so only the write-back victim carries a line number. *)
module Effect : sig
  type t = private int

  val hit : t -> bool

  val fills : t -> bool
  (** The accessed line is fetched from below (read request). *)

  val forwards_write : t -> bool
  (** The write is sent below without allocating (no-write-allocate). *)

  val has_writeback : t -> bool
  (** A dirty victim must be written below. *)

  val writeback_line : t -> int
  (** The victim line; meaningful only when {!has_writeback}. *)
end

val create : Cache_params.t -> t

val params : t -> Cache_params.t

val read : t -> line:int -> Effect.t
(** Read lookup.  On a miss the line is allocated clean; a dirty victim is
    reported via {!Effect.has_writeback}.  Allocation-free on both the hit
    and miss path. *)

val write : t -> line:int -> Effect.t
(** Write lookup.  On a hit the line is dirtied.  On a miss:
    [Write_allocate] fetches the line ({!Effect.fills}) and dirties it;
    [No_write_allocate] leaves the cache unchanged and reports the write
    via {!Effect.forwards_write}. *)

val mru_hit : t -> line:int -> write:bool -> bool
(** The one hit test, a single probe: true when [line] is in the most
    recently used way of its set.  Then it counts a read or write hit
    ([write] dirties the line) and changes no recency — the way already
    heads its set.  Otherwise it changes nothing and is false (also for
    a negative [line]); {!read} and {!write} try it first, so a caller
    that finds it false goes on with them. *)

val probe : t -> line:int -> bool
(** Non-intrusive presence test (does not touch LRU state). *)

val is_dirty : t -> line:int -> bool
(** Non-intrusive dirtiness test; false when the line is absent. *)

val flush_dirty : t -> (int -> unit) -> unit
(** Invoke the callback on every resident dirty line and mark them clean —
    end-of-trace write-back drain so memory traffic accounting is
    complete. *)

val invalidate_all : t -> unit
(** Drop every line without write-backs (used between independent
    experiments). *)

val resident_lines : t -> int

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val read_hits : t -> int
val read_misses : t -> int
val write_hits : t -> int
val write_misses : t -> int
val evictions : t -> int
val dirty_evictions : t -> int

val miss_rate : t -> float
(** Misses over total accesses; 0 when idle. *)

val reset_stats : t -> unit
