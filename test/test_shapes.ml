(* Paper-shape acceptance checks.

   These run the full pipeline — apps, scavenger, cache filter, power
   simulator, performance model — at the default scale, through the same
   sweep-engine path [experiments.exe] prints from, and assert every claim
   of {!Nvsc_core.Claims}: one case per claim, named after its finding.
   The bands live in the registry; exact values live in EXPERIMENTS.md.
   The last cases check the pipeline rather than the paper. *)

module E = Nvsc_core.Experiment
module Engine = Nvsc_sweep.Engine
module Claims = Nvsc_core.Claims

(* the evaluation's cell outcomes and the data the tables are drawn from *)
let run =
  lazy
    (let config = E.default_config in
     let outcomes, _ =
       Engine.run ~jobs:1 (Engine.experiments_matrix ~config)
     in
     (outcomes, Engine.experiments_data ~config outcomes))

let data () = snd (Lazy.force run)

let claim_case (c : Claims.t) =
  Alcotest.test_case (Claims.name c) `Slow (fun () ->
      let measured, verdict = Claims.evaluate (data ()) c in
      Alcotest.(check bool)
        (Printf.sprintf "%s: paper %s, measured %s" c.id c.paper measured)
        true (verdict = Claims.Held))

let test_fig7_cdf_monotone () =
  List.iter
    (fun (_, points) ->
      let rec check prev = function
        | [] -> ()
        | (p : Nvsc_core.Usage_variance.cdf_point) :: rest ->
          Alcotest.(check bool) "monotone" true (p.cumulative_bytes >= prev);
          check p.cumulative_bytes rest
      in
      check 0 points)
    (data ()).cdfs

(* gtc is excluded from the figure, as in the paper *)
let test_fig7_gtc_omitted () =
  Alcotest.(check bool) "gtc omitted" true
    (not (List.mem_assoc "gtc" (data ()).cdfs))

(* Full attribution is checked per app at small scale in test_apps.ml: the
   cell payloads do not carry the unattributed count. *)
let test_pipeline_hygiene () =
  let outcomes, _ = Lazy.force run in
  let powers =
    Array.to_list outcomes
    |> List.filter_map (fun (o : Engine.outcome) ->
           match o.payload with
           | Nvsc_sweep.Cell.Power_result p -> Some (o.spec.app, p)
           | _ -> None)
  in
  Alcotest.(check int) "a power cell per app" 4 (List.length powers);
  List.iter
    (fun (app, (p : Nvsc_sweep.Cell.power_payload)) ->
      Alcotest.(check bool) (app ^ " trace collected") true
        (p.trace_length > 0);
      Alcotest.(check bool) (app ^ " caches filter traffic") true
        (p.l2_miss_rate < 0.9))
    powers

(* The ids EXPERIMENTS.md cites on its "Claims:" lines are exactly the
   registry's, and the registry's ids are unique. *)
let test_experiments_md_cites_registry () =
  let ids = List.map (fun (c : Claims.t) -> c.id) Claims.all in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let ic = open_in (Sys.getenv "EXPERIMENTS_MD") in
  let rec cited acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line when String.starts_with ~prefix:"Claims:" line ->
      (* the backquoted words are the odd fields *)
      let ticked =
        List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' line)
      in
      cited (ticked @ acc)
    | _ -> cited acc
  in
  let cited =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> cited [])
  in
  Alcotest.(check (list string)) "cited ids = registry ids"
    (List.sort compare ids)
    (List.sort_uniq compare cited)

let suite =
  Alcotest.test_case "EXPERIMENTS.md cites every claim" `Quick
    test_experiments_md_cites_registry
  :: List.map claim_case Claims.all
  @ [
      Alcotest.test_case "Figure 7: CDF monotone" `Slow test_fig7_cdf_monotone;
      Alcotest.test_case "Figure 7: gtc omitted" `Slow test_fig7_gtc_omitted;
      Alcotest.test_case "pipeline hygiene" `Slow test_pipeline_hygiene;
    ]
