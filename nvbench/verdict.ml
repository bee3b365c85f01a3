(* The comparison rule between a parent's and a change's samples of one
   end-to-end metric.  What is compared is the two medians, so the
   spread that matters is that of a median: the notch of a notched box
   plot (McGill, Tukey and Larsen 1978), 1.58 IQR / sqrt n on each side
   of it, outside of which two medians differ at roughly the 95% level.

   A change regresses only when its median is worse than the parent's by
   more than both the metric's bound and the two notches together.  When
   either notch is wider than the bound, the samples cannot tell and the
   metric is unresolved, unless every change sample beats every parent
   sample. *)

type t = Ok | Improved | Regression | Unresolved

let to_string = function
  | Ok -> "ok"
  | Improved -> "improved"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

let notch (s : Sample_stats.t) =
  1.58 *. Sample_stats.iqr s /. sqrt (float_of_int s.n)

let judge ~(better : Spec.better) ~bound ~(parent : Sample_stats.t)
    ~(change : Sample_stats.t) =
  (* positive when the change is worse *)
  let worse_by =
    match better with
    | Lower -> change.median -. parent.median
    | Higher -> parent.median -. change.median
  in
  let all_better =
    match better with
    | Lower -> change.max < parent.min
    | Higher -> change.min > parent.max
  in
  let wide (s : Sample_stats.t) = notch s > bound *. Float.abs s.median in
  let beyond d =
    d > bound *. Float.abs parent.median && d > notch parent +. notch change
  in
  if wide parent || wide change then
    if all_better then Improved else Unresolved
  else if beyond worse_by then Regression
  else if beyond (-.worse_by) then Improved
  else Ok
