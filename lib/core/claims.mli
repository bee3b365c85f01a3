(** The paper's evaluation findings (§VII) as one list.

    Each claim names a table or figure, quotes the paper and measures the
    same quantity on {!Experiment.data}.  [test/test_shapes.ml] asserts
    every claim at {!Experiment.default_config}, [test/test_sweep.ml] every
    {!Any_config} claim on random small configurations, [experiments.exe
    claims] prints them, and EXPERIMENTS.md cites their ids. *)

type scope =
  | Any_config  (** an ordering or existence: holds at any configuration *)
  | Paper_scale  (** a numeric band: checked at the default configuration *)

type t = {
  id : string;  (** stable identifier, cited by EXPERIMENTS.md *)
  section : string;  (** the table or figure, e.g. ["Table V"] *)
  title : string;  (** the finding in words *)
  paper : string;  (** the paper's value or wording *)
  scope : scope;
  check : Experiment.data -> string * bool;  (** measured value, held *)
}

val all : t list
(** Every claim, in the paper's order; ids are unique. *)

val name : t -> string
(** ["section: title"], e.g. ["Table V: stack reference shares, cam"]. *)

type verdict = Held | Failed | Skipped

val evaluate : Experiment.data -> t -> string * verdict
(** A {!Paper_scale} claim is [Skipped] off {!Experiment.default_config}; a
    claim whose quantity the data lacks has [Failed]. *)

val report : Format.formatter -> Experiment.data -> int
(** One row per claim (id, finding, paper, measured, verdict); returns the
    number of evaluated claims that failed. *)
