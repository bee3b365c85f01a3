(** Markdown report generation.

    Renders a self-contained, regenerable markdown report of the whole
    evaluation — the machine-written counterpart of EXPERIMENTS.md — from
    the evaluation data: Table I/V/VI, figure 12, and the per-app
    aggregates of figures 3–11, each annotated with the paper's value
    where the paper states one. *)

val markdown_of_data : Experiment.data -> string
(** Render from precomputed evaluation data — the sweep-engine path: no
    application is re-run, everything comes from (possibly cached) cell
    payloads. *)
