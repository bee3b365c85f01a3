(** The one domain pool: a work queue shared by OCaml 5 worker domains.

    Worker domains are spawned when a pool is made and block on a
    condition variable between tasks.  Tasks are started in submission
    order; each {!submit} returns a ticket, and {!await} on it yields the
    task's outcome.  Two kinds of pool share this mechanism:

    - a {e resident} pool ({!create}) has [jobs] workers and lives as
      long as its owner — [nvscav serve] multiplexes every client onto
      one, with no per-request domain spawns.  Submitters may be threads
      on any domain; they only wait.
    - a {e caller's} pool ({!with_pool}) has [jobs - 1] workers, and the
      calling domain is the last of its [jobs]: while it awaits a ticket
      it runs queued tasks itself.  At [jobs = 1] no domain is spawned
      and every task runs on the caller. *)

type t
(** A running pool. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the machine's useful
    parallelism. *)

val create : ?jobs:int -> unit -> t
(** A resident pool of [jobs] worker domains (default {!default_jobs},
    minimum 1). *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a caller's pool of [jobs] domains
    ([jobs] is clamped to at least 1), then {!shutdown}s it, also when [f]
    raises. *)

val jobs : t -> int

type 'a outcome =
  | Done of 'a
  | Failed of exn
  | Cancelled  (** the cancellation hook returned [true] before start *)

type 'a ticket

val submit : ?cancelled:(unit -> bool) -> t -> (unit -> 'a) -> 'a ticket
(** Enqueue a task.  [cancelled] is polled once, just before the task
    would start executing: a task whose client has disconnected is
    dropped from the queue without running.  A task already running is
    never interrupted.  Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a ticket -> 'a outcome
(** Block until the task finishes (or is cancelled); in a caller's pool,
    run queued tasks meanwhile.  A resident pool's tickets may be awaited
    from any thread; repeated calls return the same outcome. *)

val shutdown : t -> unit
(** Stop accepting work, join every worker (running tasks complete), and
    resolve still-queued tasks as [Cancelled]. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f items] applies [f] to every element of [items] on a
    caller's pool of [jobs] domains, clamped to [1 .. Array.length items],
    and returns the results {e in input order} — the deterministic
    ordered collection the byte-identical-report contract rests on.

    If any [f] raises, the first exception in {e input order} is
    re-raised once the workers have finished their running tasks;
    later items that have not started by then never run. *)
