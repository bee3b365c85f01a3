(* Order statistics over one metric's samples.  Quartiles follow Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so spreads
   computed here and by a Python consumer of the same samples agree. *)

type t = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Sample_stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles] with method='exclusive': m = n + 1, cut point
   i sits at rank i*m/4, clamped to [1, n-1], linearly interpolated. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample_stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

let summarize xs =
  let q1, _, q3 = quartiles xs in
  let a = sorted xs in
  {
    median = median xs;
    q1;
    q3;
    min = a.(0);
    max = a.(Array.length a - 1);
    n = Array.length a;
  }

let iqr s = s.q3 -. s.q1
