(** Batched reference transport (paper §III-D).

    NV-SCAVENGER places raw references in a memory buffer and processes the
    whole buffer at once when it fills, amortising per-access bookkeeping
    and keeping the analysis out of the traced program's cache-hot path.
    This module is the repo-wide carrier for that idea: producers push
    references into a flat struct-of-arrays batch — no per-record
    allocation — and consumers receive whole batches.

    A {!t} is a buffered, counted sink: pushes accumulate in an internal
    {!Batch.t} and are handed to the consumer when the batch fills
    (capacity flush) or at an explicit boundary ({!flush}, called at
    iteration/phase boundaries so per-iteration statistics stay exact).
    The push buffer is allocated by the first {!push}: a sink that is
    only {!deliver}ed to owns none. *)

(** Flat batch of references: parallel [addr]/[size] buffers plus one byte
    per record for the read/write op.  Indices [0 .. n-1] are valid, where
    [n] is carried alongside the batch, not stored in it.

    Storage is [Bigarray]-backed: elements are unboxed, live outside the
    OCaml heap, and are domain-shareable, so one filled batch can be
    handed by reference to N worker domains with zero copying. *)
module Batch : sig
  type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** Unboxed native-int payload buffer.  The kind and layout are concrete
      so [Bigarray.Array1.unsafe_get] compiles to a direct load at use
      sites. *)

  type op_buf =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** One byte per record: ['\000'] = read, ['\001'] = write. *)

  type t

  val create : int -> t
  (** A batch with the given capacity (positive), zero-filled. *)

  val create_like : t -> t
  (** A fresh batch of the same capacity whose size plane starts as a
      copy of the given batch's: a producer that fills the sizes once
      ({!fill_sizes}) finds them filled.  The addresses and ops are
      zero. *)

  val with_shared_sizes : int_buf -> t
  (** A batch of the plane's length (positive) whose size plane {e is}
      the given plane, not a copy: several batches of one uniform size
      share one plane, which their writers leave alone
      ({!set_addr_op}). *)

  val capacity : t -> int

  val addrs : t -> int_buf
  val sizes : t -> int_buf

  val ops : t -> op_buf
  (** Raw buffer views for hot loops: validate the delivered slice with
      {!check_slice} once, then index with [Bigarray.Array1.unsafe_get].
      A batch keeps its buffers for life, so a view stays valid as long
      as the batch. *)

  val addr : t -> int -> int
  val size : t -> int -> int
  val is_write : t -> int -> bool

  val op : t -> int -> Access.op
  (** Bounds-checked reads of record [i]; raise [Invalid_argument] outside
      the capacity. *)

  val set : t -> int -> addr:int -> size:int -> op:Access.op -> unit

  val set_addr_op : t -> int -> addr:int -> op:Access.op -> unit
  (** Like {!set} but leaves [sizes] untouched — for producers that emit a
      single size and prefill it once with {!fill_sizes}. *)

  val fill_sizes : t -> int -> unit

  val blit :
    t -> src_pos:int -> t -> dst_pos:int -> n:int -> unit
  (** [blit src ~src_pos dst ~dst_pos ~n] copies [n] records between
      batches (all three planes).  Bounds-checked by [Bigarray]. *)

  val check_slice : t -> first:int -> n:int -> unit
  (** Validate that [first .. first+n-1] lies within the batch capacity;
      raises [Invalid_argument] (naming the offending slice) otherwise. *)
end

type consumer = Batch.t -> first:int -> n:int -> unit
(** Receives a slice [first .. first+n-1] of a batch ([n > 0]).  The
    consumer must not retain the batch: the producer reuses it. *)

type t

val create : ?name:string -> ?capacity:int -> consumer -> t
(** A buffered sink delivering to [consumer].  [capacity] (positive)
    defaults to {!default_capacity}; the push buffer of that many records
    is made by the first {!push}. *)

val default_capacity : int
(** 65536, the paper's flush granularity. *)

val null : unit -> t
(** A sink that discards everything (still counts {!pushed}); it never
    buffers, so it never calls a consumer. *)

val push : t -> addr:int -> size:int -> op:Access.op -> unit
(** Append one reference; triggers a capacity flush when the buffer
    fills. *)

val deliver : t -> Batch.t -> first:int -> n:int -> unit
(** Zero-copy hand-off of a foreign batch slice: any buffered pushes are
    flushed first (preserving order), then the slice goes straight to the
    consumer without being copied.  Raises [Invalid_argument] (via
    {!Batch.check_slice}) on a slice outside the batch. *)

val flush : t -> unit
(** Boundary flush: deliver any buffered references now.  No-op when the
    buffer is empty. *)

(** {1 Self-observability} *)

val name : t -> string

val pushed : t -> int
(** References that entered the sink ({!push} and {!deliver} combined). *)

val batches : t -> int
(** Consumer invocations so far. *)

val capacity_flushes : t -> int
val boundary_flushes : t -> int

val flushes : t -> int
(** [capacity_flushes + boundary_flushes]. *)

val buffer_capacity : t -> int
(** Records the push buffer holds: 0 before the first {!push}, and
    always for {!null}. *)

type stats = {
  name : string;
  pushed : int;
  batches : int;
  capacity_flushes : int;
  boundary_flushes : int;
}

val stats : t -> stats
