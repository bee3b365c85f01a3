(* Do the paper's observations generalise beyond its four applications?

   The paper closes §I claiming its data-structure observations "apply
   broadly to many applications beyond our initial set".  This study runs
   the two beyond-the-paper workloads shipped with the library — a
   MiniFE-like sparse-CG finite-element proxy and a MiniMD-like molecular
   dynamics proxy — through the same pipeline and checks the claim:

   - MiniFE's CSR matrix is the "computing-dependent read-only data"
     scenario at a scale the paper never saw (over half the footprint);
   - MiniMD's neighbour list is the temporally NVRAM-friendly pattern of
     §VII-C (read-only between periodic rebuild bursts), which only a
     dynamic policy can exploit.

   Run with: dune exec examples/generality_study.exe *)

module OM = Nvsc_core.Object_metrics
module Mem_object = Nvsc_memtrace.Mem_object

let () =
  List.iter
    (fun name ->
      let app = Option.get (Nvsc_apps.Apps.find name) in
      let r =
        Nvsc_core.Scavenger.run
          Nvsc_core.Scavenger.Config.(
            default |> with_scale 0.5 |> with_iterations 8)
          app
      in
      Format.printf "== %s ==@." r.app_name;
      Nvsc_core.Stack_analysis.pp_summary_table Format.std_formatter
        [ Nvsc_core.Stack_analysis.summarize r ];
      let rep = Nvsc_core.Object_analysis.analyze r in
      Format.printf
        "read-only: %s of footprint; NVRAM-suitable (cat. 2): %s@."
        (Nvsc_util.Table.cell_pct rep.Nvsc_core.Object_analysis.read_only_fraction)
        (Nvsc_util.Table.cell_pct
           rep.Nvsc_core.Object_analysis.nvram_friendly_fraction);
      (* the placement consequence *)
      Nvsc_core.Extensions.pp_placement Format.std_formatter
        (Nvsc_core.Extensions.placement_summary r);
      Format.printf "@.")
    [ "minife"; "minimd" ];

  (* MiniMD's neighbour list, iteration by iteration: the §VII-C pattern *)
  let r =
    Nvsc_core.Scavenger.run
      Nvsc_core.Scavenger.Config.(
        default |> with_scale 0.5 |> with_iterations 8)
      (Option.get (Nvsc_apps.Apps.find "minimd"))
  in
  let nl =
    List.find
      (fun (m : OM.t) -> m.obj.Mem_object.name = "neighbor_list")
      r.metrics
  in
  Format.printf "minimd neighbor_list per-iteration read/write ratio:@.";
  for iter = 1 to r.iterations do
    let ratio = OM.per_iter_ratio nl ~iter in
    Format.printf "  iter %d: %s@." iter
      (if ratio = infinity then "read-only"
       else Printf.sprintf "%.2f (rebuild burst)" ratio)
  done
