(** A staged batch consumer: overlap a {!Sink.consumer} with the
    producer that feeds it, on a second domain of a caller's pool.

    The producer (an application's emission, or the NVT decoder) hands
    slices to {!push}.  With a pool of two or more domains the stage
    copies them into one of two batch buffers of its own; when a buffer
    fills, the stage awaits the previous hand-off and then submits the
    full buffer as one pool task, so the producer fills the other buffer
    while the consumer drains this one.  At most one task is in flight,
    and task [k - 1] has finished before task [k] is submitted: the
    consumer runs on one domain at a time, in stream order, and sees the
    same references in the same order as it would be fed directly — only
    the slice boundaries differ.

    Without a pool, or with a pool of one domain, {!push} calls the
    consumer on the delivered slice directly, with no copy.

    A consumer that raises fails the stage: the exception reaches the
    producer from the next hand-off or from {!finish}, and no later batch
    is consumed. *)

type t

val create : ?pool:Nvsc_team.Pool.t -> Sink.consumer -> t
(** [pool] must be a caller's pool ({!Nvsc_team.Pool.with_pool}) that
    outlives the stage.  The two buffers, of {!Sink.default_capacity}
    records each, are only made when it has two or more domains. *)

val push : t -> Sink.Batch.t -> first:int -> n:int -> unit
(** Hand a slice to the consumer.  The producer may reuse the batch as
    soon as [push] returns.  Raises [Invalid_argument] on a slice outside
    the batch, and re-raises the consumer's exception once it has
    failed. *)

val finish : t -> unit
(** Hand off the partly filled buffer and await the last task: when
    [finish] returns, the consumer has seen every pushed reference and
    is idle.  Re-raises the consumer's exception. *)

val drive : t -> (unit -> 'a) -> 'a
(** [drive t produce] runs the producer, then {!finish}es the stage.  If
    [produce] raises, the stage awaits its in-flight task (ignoring its
    outcome) and drops the partly filled buffer before re-raising, so
    the consumer is idle when the producer's exception leaves. *)
