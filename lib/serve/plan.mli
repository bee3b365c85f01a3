(** Request → execution plan: which {!Nvsc_sweep.Cell}s to run, and how
    to render each completed cell into its report chunk.

    A plan is the one path from a request to its report.  The daemon
    streams each chunk to its client; the local [nvscav] subcommands
    ([analyze], [run], [power], [perf], [place], [replay], [sweep])
    execute the same plan in-process through {!Nvsc_sweep.Engine} and
    print the same chunks, so client output is byte-identical to local
    stdout by construction.  Cells are the unit of caching, and the cells
    that share one application run execute as one group
    ({!Nvsc_sweep.Cell.group}) — a warm [analyze] request is served
    without running anything, and a cold [run] runs the application
    once. *)

module Cell = Nvsc_sweep.Cell

type t = {
  specs : Cell.spec array;  (** cells, in report order *)
  trace : string option;  (** [.nvt] file feeding trace-fed cells *)
  sections : (Format.formatter -> Cell.payload -> unit) array;
      (** one renderer per cell, same indexing as [specs] *)
}

val chunk : t -> int -> Cell.payload -> string
(** Render cell [i]'s completed payload to its report chunk. *)

val power : app:string -> scale:float -> iterations:int -> (t, Protocol.error) result
(** [nvscav power APP]: one power cell (trace line, per-technology
    statistics, normalized power).  Local only: not a protocol request. *)

val perf : app:string -> scale:float -> asymmetric:bool -> (t, Protocol.error) result
(** [nvscav perf APP]: one perf cell's paper rows, or its posted-write
    rows when [asymmetric].  Local only: not a protocol request. *)

val place :
  app:string ->
  scale:float ->
  iterations:int ->
  tech:string ->
  (t, Protocol.error) result
(** [nvscav place APP]: one place cell (the NVRAM items, then the
    assessment).  Local only: not a protocol request. *)

val of_request : Protocol.request -> (t, Protocol.error) result
(** Validates and decomposes an analysis request ([analyze]/[run]/
    [replay]/[sweep]).  Unknown applications, technologies, kinds, bad
    overrides, unreadable traces and non-positive configurations come
    back as [bad-request] errors naming the offending field.  Raises
    [Invalid_argument] on [Ping]/[Stats]/[Shutdown], which have no
    plan. *)
