(** On-disk content-addressed result cache.

    Each completed cell is stored as [DIR/<digest>.json], where the digest
    (see {!Cell.digest}) covers the application name, every configuration
    field and the engine's code-version salt — so any config change, or a
    schema bump, misses cleanly.  Values are the cell's JSON payload
    wrapped with its spec for verification; a corrupt, stale or
    foreign-schema file is deleted and counted as a miss.

    Entry count can be bounded with [max_entries]: insertion order is kept
    in an index file and the oldest entries are evicted on store
    (FIFO — cells are deterministic, so re-filling an evicted entry costs
    one re-execution, never correctness).

    {!find} and {!store} serialise on a mutex inside the cache, so the
    threads of one process may share it (the serve daemon's connections
    do).  The sweep engine calls both from its calling thread only: every
    lookup before any cell executes, every store in report order as the
    outcomes are collected.  One caller therefore sees deterministic
    hits, misses and FIFO eviction order, whatever the pool width and
    the order in which cells complete. *)

type t

type stats = { hits : int; misses : int; evictions : int }

val create : dir:string -> ?max_entries:int -> unit -> t
(** Creates [dir] (and parents) if needed. *)

val dir : t -> string
val stats : t -> stats

val find : t -> Cell.spec -> Cell.payload option
(** Cache lookup by the spec's digest; counts a hit or a miss. *)

val store : t -> Cell.spec -> Cell.payload -> unit
(** Persist a computed cell (atomic write-then-rename), then evict past
    [max_entries] if a bound was given. *)
