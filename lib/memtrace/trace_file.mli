(** Plain-text trace files in DRAMSim2's [mase] format.

    The paper's tool chain hands traces from NV-SCAVENGER to the power
    simulator as files; this module provides the same interchange point so
    traces can be archived, diffed, or fed to an actual DRAMSim2 build.

    Format, one record per line:
    {v 0x<hex address> <P_MEM_RD|P_MEM_WR> <cycle> v}
    Lines starting with ['#'] and blank lines are ignored.  On writing, the
    cycle column is the record index (this library's traces carry no
    timing, as the paper's §IV trace-driven mode assumes). *)

val save : Trace_log.t -> string -> unit
(** [save log path] writes the whole log.  Raises [Sys_error] on I/O
    failure. *)

val load : ?size:int -> string -> Trace_log.t
(** [load path] parses a trace file; [size] (default 64) is the byte size
    assigned to each access (the format does not carry one).  Raises
    [Failure] naming the file path and the offending line number on a
    malformed record, or on a line longer than 4096 bytes, which is
    never held whole.  An error quotes at most the first 40 bytes of
    what it rejects. *)

val parse_record : ?size:int -> string -> Access.t option
(** Parse one line; [None] for comments and blank lines.  Raises [Failure]
    on malformed input, including a negative address and one out of
    range (a hex literal past [max_int]).  The parsed access gets byte
    size [size] (default 64 — the format carries no size column). *)
