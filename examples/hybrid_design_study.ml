(* Horizontal vs hierarchical hybrid memory (the paper's §II design choice).

   The paper considers two ways to combine DRAM and NVRAM and picks the
   horizontal (side-by-side) design, arguing that a DRAM cache in front of
   NVRAM "actually lowers performance and increases energy consumption"
   for workloads with poor locality.  This study runs both halves of that
   argument:

   1. on the real mini-app traces (high page locality after cache
      filtering) — where the DRAM cache is competitive;
   2. on a locality sweep — exposing the crossover where page fills make
      the hierarchical design worse than even a flat all-NVRAM memory.

   Run with: dune exec examples/hybrid_design_study.exe *)

let () =
  Format.printf "== application traces (PCRAM backing) ==@.";
  List.iter
    (fun app ->
      Nvsc_core.Extensions.pp_hybrid Format.std_formatter
        (Nvsc_core.Extensions.hybrid_design
           (Nvsc_core.Extensions.profile ~scale:0.5 ~iterations:5 app)))
    Nvsc_apps.Apps.all;

  Format.printf "@.== locality sweep ==@.";
  let points =
    Nvsc_core.Extensions.dram_cache_crossover
      ~hot_fractions:[ 0.995; 0.99; 0.97; 0.95; 0.9; 0.8; 0.6; 0.4; 0.2 ]
      ()
  in
  List.iter
    (fun (c : Nvsc_core.Extensions.crossover_point) ->
      Format.printf
        "hot %.3f  hit rate %.2f  hierarchical %6.1fns  flat NVRAM %5.1fns  \
         -> %s@."
        c.hot_fraction c.hit_rate c.hierarchical_latency_ns
        c.flat_nvram_latency_ns
        (if c.dram_cache_wins then "cache wins" else "cache loses"))
    points;

  (* render the crossover as a plot: x = hit rate, y = latency *)
  let series =
    [
      ( "hierarchical",
        List.map
          (fun (c : Nvsc_core.Extensions.crossover_point) ->
            (c.hit_rate, c.hierarchical_latency_ns))
          points );
      ( "flat NVRAM",
        List.map
          (fun (c : Nvsc_core.Extensions.crossover_point) ->
            (c.hit_rate, c.flat_nvram_latency_ns))
          points );
    ]
  in
  Format.printf "@.%s"
    (Nvsc_util.Ascii_plot.line ~title:"latency vs page-cache hit rate"
       ~x_label:"hit rate" ~y_label:"avg latency (ns)" series)
