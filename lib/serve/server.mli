(** The resident analysis daemon behind [nvscav serve].

    One process holds the expensive state — a warm
    {!Nvsc_sweep.Cache} of completed cells and a resident
    {!Nvsc_team.Pool} of worker domains — and serves analysis requests
    over a Unix-domain (and optionally loopback TCP) socket speaking
    {!Protocol}.  Each connection is handled by its own thread; each
    analysis request is decomposed into cells ({!Plan}) and executed by
    {!Nvsc_sweep.Engine.run_specs} — the executor of the local
    subcommands — on the resident pool and the shared cache; the server
    only turns each outcome into a [progress] frame, in report order, and
    the call's counts into the [done] frame.  Concurrent clients share
    both the pool and every cached cell: the second identical request is
    served entirely from cache.

    Lifecycle: {!request_stop} (from a signal handler, or the [shutdown]
    request) makes the acceptor and every connection wind down;
    {!await} drains in-flight work, joins the pool, closes the
    listeners and removes the socket file.  A client disconnecting
    mid-stream cancels only that request's still-queued cell groups;
    groups already running finish and are stored in the shared cache. *)

type config = {
  socket : string option;  (** Unix-domain socket path to listen on *)
  port : int option;  (** loopback TCP port to listen on *)
  jobs : int option;  (** worker domains (default: machine parallelism) *)
  cache_dir : string option;
      (** result-cache directory; [None] uses a private temporary
          directory removed on shutdown *)
  cache_max : int option;  (** cache entry bound (FIFO eviction) *)
  max_queue : int;  (** in-flight request admission bound *)
  max_frame : int;  (** request frame size bound, bytes *)
}

val default : config
(** Unix socket ["nvscav.sock"], no TCP, machine parallelism, a
    temporary cache, [max_queue = 64], 4 MiB frames. *)

type t

val start : config -> t
(** Bind the listeners, spawn the worker pool and the acceptor, and
    return immediately.  Raises [Invalid_argument] if the config gives
    neither a socket nor a port, [Failure] if the socket path is held by
    a live server or a non-socket file (a stale socket left by a dead
    server is reclaimed). *)

val endpoints : t -> string list
(** Human-readable listen addresses, for the startup notice. *)

val request_stop : t -> unit
(** Flag the server to stop.  Async-signal-safe: a single atomic store,
    so it can be called from a [Sys.Signal_handle]. *)

val await : t -> unit
(** Block until the server stops: the acceptor exits, live connections
    drain (in-flight requests complete), the pool is joined, listeners
    are closed, the socket file is unlinked and a temporary cache
    directory is removed.  Idempotent. *)

val stop : t -> unit
(** [request_stop] then [await]. *)
