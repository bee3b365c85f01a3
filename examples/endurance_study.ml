(* Write-endurance study.

   The paper's third NVRAM limitation (§II) is bounded write endurance
   (PCRAM: ~10^8-10^9.7 writes per cell).  This example takes GTC — the
   most write-intensive of the four applications — filters its traffic
   through the cache hierarchy, feeds the main-memory *writes* into the
   per-line wear model, and asks: if this iteration rate were sustained,
   how long would each technology last, with and without wear levelling?

   Run with: dune exec examples/endurance_study.exe *)

module Endurance = Nvsc_nvram.Endurance
module Tech = Nvsc_nvram.Technology
module Trace_log = Nvsc_memtrace.Trace_log
module Batch = Nvsc_memtrace.Sink.Batch

let () =
  let result =
    Nvsc_core.Scavenger.run
      Nvsc_core.Scavenger.Config.(
        default |> with_scale 0.5 |> with_iterations 5 |> with_trace true)
      (Option.get (Nvsc_apps.Apps.find "gtc"))
  in
  let trace = Option.get result.mem_trace in
  Format.printf "%s main-memory trace: %d writes of %d accesses@.@."
    result.app_name (Trace_log.writes trace) (Trace_log.length trace);

  (* wear units: 256-byte NVRAM lines covering the (scaled) footprint *)
  let line_bytes = 256 in
  let lines = 1 + (result.footprint_bytes / line_bytes) in

  (* The simulated run covers [iterations] time steps; a production run
     sustains that write traffic continuously.  Assume 10 time steps per
     wall-clock second, a typical strong-scaled rate. *)
  let steps_per_second = 10. in
  let writes_per_second =
    float_of_int (Trace_log.writes trace)
    /. float_of_int result.iterations *. steps_per_second
  in
  Format.printf "sustained write rate: %.2e line-writes/s over %d lines@.@."
    writes_per_second lines;

  (* every main-memory write, as the wear line it lands on *)
  let iter_write_lines f =
    Trace_log.iter_slices trace (fun batch ~first ~n ->
        for i = first to first + n - 1 do
          if Batch.is_write batch i then
            f (Batch.addr batch i / line_bytes mod lines)
        done)
  in

  List.iter
    (fun tech_id ->
      let tech = Tech.get tech_id in
      let e = Endurance.create ~tech ~lines in
      iter_write_lines (fun line -> Endurance.record_write e ~line);
      let years levelled =
        Endurance.lifetime_years e ~write_rate_per_s:writes_per_second
          ~wear_levelled:levelled
      in
      Format.printf
        "%-8s endurance %.1e  wear imbalance %5.1fx  lifetime: %10.1f years \
         levelled, %10.3f years unlevelled@."
        tech.Tech.name tech.write_endurance (Endurance.wear_imbalance e)
        (years true) (years false))
    [ Tech.PCRAM; Tech.STTRAM; Tech.MRAM; Tech.Flash ];

  (* Quantify what wear levelling buys: replay the same write stream
     through Start-Gap and table-based remapping. *)
  Format.printf "@.wear levelling on the same write stream (PCRAM lines):@.";
  let schemes =
    [
      ("none", None);
      ( "start-gap/100",
        Some (Nvsc_nvram.Wear_leveling.Start_gap { gap_move_interval = 100 }) );
      ( "table/256",
        Some (Nvsc_nvram.Wear_leveling.Table_based { swap_interval = 256 }) );
    ]
  in
  List.iter
    (fun (label, scheme) ->
      match scheme with
      | None ->
        let e =
          Endurance.create ~tech:(Tech.get Tech.PCRAM) ~lines
        in
        iter_write_lines (fun line -> Endurance.record_write e ~line);
        Format.printf "  %-14s imbalance %6.2fx@." label
          (Endurance.wear_imbalance e)
      | Some scheme ->
        let wl = Nvsc_nvram.Wear_leveling.create scheme ~lines in
        iter_write_lines (fun line ->
            ignore (Nvsc_nvram.Wear_leveling.write wl line));
        Format.printf "  %-14s imbalance %6.2fx (+%.2f%% writes)@." label
          (Nvsc_nvram.Wear_leveling.wear_imbalance wl)
          (100. *. Nvsc_nvram.Wear_leveling.extra_write_overhead wl))
    schemes;
  Format.printf
    "@.(the imbalance factor is why real PCRAM controllers ship start-gap \
     or table-based wear levelling)@."
