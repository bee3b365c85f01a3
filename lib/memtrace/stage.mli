(** A staged batch consumer: overlap a {!Sink.consumer} with the
    producer that feeds it, on a second domain of a caller's pool.

    The producer (an application's emission, or the NVT decoder) fills
    a batch of its own and {!hand_over}s it.  With a pool of two or more
    domains the batch itself goes to the pool as one task, and the
    producer continues in the batch it gets back: the spare at the first
    hand-over, afterwards the batch of the previous one, once its task
    has finished.  So the producer fills one batch while the consumer
    drains the other, nothing is copied, and the stage owns at most one
    spare.  At most one task is in flight, and task [k - 1] has finished
    before task [k] is submitted: the consumer runs on one domain at a
    time, in stream order, and sees the same references in the same
    order as it would be fed directly.

    Without a pool, or with a pool of one domain, {!hand_over} calls the
    consumer on the batch directly and gives the same batch back.

    A consumer that raises fails the stage: the exception reaches the
    producer from the next hand-over or from {!finish}, and no later
    batch is consumed. *)

type t

val create : ?pool:Nvsc_team.Pool.t -> Sink.consumer -> t
(** [pool] must be a caller's pool ({!Nvsc_team.Pool.with_pool}) that
    outlives the stage.  Nothing is allocated here: the spare is made at
    the first hand-over to a second domain. *)

val hand_over : t -> Sink.Batch.t -> n:int -> Sink.Batch.t
(** [hand_over t batch ~n] gives the consumer records [0 .. n-1] of
    [batch] and returns the batch the producer continues in, of
    [batch]'s capacity.  Call it only once every synchronous reader of
    [batch] has seen it.  When the returned batch is not [batch], the
    producer must not write [batch] again: the consumer may be reading
    it.  The spare is {!Sink.Batch.create_like} the first batch handed
    over, so a producer that fills its sizes once finds them filled.
    [n = 0] hands nothing over.  Raises [Invalid_argument] on [n]
    outside the batch, and re-raises the consumer's exception once it
    has failed.  Each non-empty hand-over counts in the
    [stage.hand_overs] metric, at every width. *)

val finish : t -> unit
(** Await the last task: when [finish] returns, the consumer has seen
    every handed-over reference and is idle.  Re-raises the consumer's
    exception. *)

val drive : t -> (unit -> 'a) -> 'a
(** [drive t produce] runs the producer, then {!finish}es the stage.  If
    [produce] raises, the stage awaits its in-flight task (ignoring its
    outcome) before re-raising, so the consumer is idle when the
    producer's exception leaves. *)
