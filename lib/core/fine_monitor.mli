(** Fine-time-granularity reference monitor (paper §VII-C).

    "Nek5000 has quite diverse reference rates across iterations.  To
    leverage NVRAM for those pages, a memory reference monitor working at a
    fine time granularity should be applied to dynamically decide the
    optimal location of a memory page."

    This monitor subscribes to an instrumentation context's reference
    stream and delivers per-object read/write counts every [window_refs]
    references — a time base much finer than the main-loop iteration — so
    a dynamic placement policy can react inside an iteration. *)

type window_counts = (int * int * int) list
(** [(object id, reads, writes)] for objects touched in the window. *)

type t

val attach :
  Nvsc_appkit.Ctx.t ->
  window_refs:int ->
  on_window:(window_counts -> unit) ->
  t
(** Register the monitor as an {!Nvsc_appkit.Ctx.observe}r taking
    [on_refs] only: window counts use the emission-time attribution
    carried alongside each slice.  [on_window] fires each time
    [window_refs] references have been observed (and once more for a
    final partial window via {!flush}). *)

val flush : t -> unit
(** Flush the context's buffered references, then deliver the current
    partial window, if any. *)

val windows : t -> int
(** Completed windows so far. *)

val references_seen : t -> int
