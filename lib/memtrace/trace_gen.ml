module Rng = Nvsc_util.Rng

(* A generator is a pull-stream: [next sink] pushes at most one reference
   and reports whether it did.  Streams carry their own RNG state, created
   at construction, and produce elements in the same order the old
   list-returning generators did — so seeded sequences are unchanged. *)
type t = { next : Sink.t -> bool }

let next t sink = t.next sink

let into t sink =
  Nvsc_obs.Span.with_ "trace_gen.into" @@ fun () ->
  let n = ref 0 in
  while t.next sink do
    incr n
  done;
  !n

let counted n emit =
  let i = ref 0 in
  {
    next =
      (fun sink ->
        if !i >= n then false
        else begin
          emit sink !i;
          incr i;
          true
        end);
  }

let sequential ?(start = 0) ?(line_bytes = 64) ~n () =
  counted n (fun sink i ->
      Sink.push sink
        ~addr:((start + i) * line_bytes)
        ~size:line_bytes ~op:Access.Read)

let strided ?(start = 0) ?(line_bytes = 64) ~stride_lines ~n () =
  if stride_lines <= 0 then invalid_arg "Trace_gen.strided: stride";
  counted n (fun sink i ->
      Sink.push sink
        ~addr:((start + (i * stride_lines)) * line_bytes)
        ~size:line_bytes ~op:Access.Read)

let push_op rng write_fraction sink addr =
  let op =
    if Rng.bernoulli rng write_fraction then Access.Write else Access.Read
  in
  Sink.push sink ~addr ~size:64 ~op

let hot_cold ~seed ~hot_fraction ~hot_lines ~cold_lines ~write_fraction ~n ()
    =
  if hot_lines <= 0 || cold_lines <= 0 then invalid_arg "Trace_gen.hot_cold";
  let rng = Rng.of_int seed in
  counted n (fun sink _ ->
      let line =
        if Rng.bernoulli rng hot_fraction then Rng.int rng hot_lines
        else hot_lines + Rng.int rng cold_lines
      in
      push_op rng write_fraction sink (line * 64))

let zipf ~seed ?(exponent = 1.0) ~lines ~write_fraction ~n () =
  if lines <= 0 then invalid_arg "Trace_gen.zipf";
  let rng = Rng.of_int seed in
  (* cumulative harmonic weights for inverse-CDF sampling *)
  let cum = Array.make lines 0. in
  let acc = ref 0. in
  for i = 0 to lines - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** exponent));
    cum.(i) <- !acc
  done;
  let total = !acc in
  let sample () =
    let u = Rng.float rng total in
    (* binary search for the first cumulative weight >= u *)
    let lo = ref 0 and hi = ref (lines - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  counted n (fun sink _ -> push_op rng write_fraction sink (sample () * 64))

let interleave streams =
  let arr = Array.of_list streams in
  let k = Array.length arr in
  let idx = ref 0 in
  {
    next =
      (fun sink ->
        (* rotate through the children, skipping exhausted ones; one full
           barren rotation means the whole interleave is drained *)
        let rec go tries =
          if tries = 0 then false
          else begin
            let s = arr.(!idx) in
            idx := (!idx + 1) mod k;
            if s.next sink then true else go (tries - 1)
          end
        in
        if k = 0 then false else go k);
  }
