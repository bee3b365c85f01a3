(** Minimal JSON values: the sweep engine's cell-cache interchange format.

    Self-contained (no external dependency) and deliberately small: the
    printer is deterministic (object fields keep their given order, floats
    render with round-trip precision) so that a value printed, parsed and
    re-printed is byte-identical — the property the content-addressed
    result cache relies on.

    Non-finite floats, which JSON numbers cannot carry, are printed as the
    strings ["inf"], ["-inf"] and ["nan"]; {!to_float} converts them
    back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

val pp : Format.formatter -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Inverse of {!to_string}; accepts any standard JSON text.  Raises
    {!Parse_error} on malformed input. *)

(** {1 Accessors}

    All raise {!Parse_error} when the value has the wrong shape, so codec
    failures surface as one exception the cache treats as a miss. *)

val member : string -> t -> t
val member_opt : string -> t -> t option
val to_int : t -> int
val to_float : t -> float
(** Accepts [Int], [Float], and the [Str] spellings of non-finite
    floats. *)

val to_str : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list

val float : float -> t
(** [Float f] for finite [f]; the string spelling otherwise. *)

(** {1 Newline-delimited framing}

    One JSON value per line — the wire format of [nvscav serve].  The
    printer escapes control characters inside strings, so an encoded
    frame never contains a raw newline and the framing cannot be broken
    by payload content.

    The reader is incremental (suitable for a socket), enforces a
    maximum frame size, and reports every malformed frame as a value —
    naming the absolute byte offset where the frame began — rather than
    an exception, so a server can answer the error and keep the
    connection: after an [Error] result the reader is positioned at the
    next frame boundary. *)
module Lines : sig
  val default_max_frame : int
  (** 4 MiB. *)

  type error = { offset : int; message : string }
  (** [offset] is the absolute byte offset of the offending frame's first
      byte; [message] repeats it in prose. *)

  type reader

  val reader : ?max_frame:int -> (bytes -> int -> int -> int) -> reader
  (** [reader refill] reads frames from [refill buf pos len] (a
      [Stdlib.input]-style function returning [0] at end of stream). *)

  val of_string : ?max_frame:int -> string -> reader

  val read : reader -> (t, error) result option
  (** The next frame: [None] at a clean end of stream, [Some (Error _)]
      for an empty, oversized, truncated or unparseable line (the line is
      consumed; reading may continue), [Some (Ok v)] otherwise. *)

  val offset : reader -> int
  (** Absolute byte offset of the next unread byte. *)

  val encode : t -> string
  (** Compact rendering plus the terminating newline. *)

  val write : out_channel -> t -> unit
  (** [output_string] of {!encode}, then [flush]. *)
end
