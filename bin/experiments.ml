(* Regenerate every table and figure of the paper's evaluation section,
   then the extension studies.

   Every application run is a sweep cell: objects, power and perf per
   application, plus one study cell per application that takes its
   traced profile and makes the extension studies' further runs (skipped
   under [no-ext] and [claims]).  All cells run in one sweep on a pool
   of [--jobs N] worker domains, memoized in [--cache DIR] when given;
   the output is byte-identical for every N and for warm-cache reruns.
   The extension report is printed from the study cells' payloads and
   the perf cells' posted-write runtimes.  Cache statistics (and the
   [--profile] summary) go to standard error.

   [claims] prints the paper's findings ({!Nvsc_core.Claims}) instead of
   the tables: one line per claim with the paper's and the measured value,
   held, failed or (for a numeric band off the default configuration)
   skipped; the exit code is 1 if an evaluated claim failed.

   The modes are bare words: [experiments quick no-ext claims]. *)

open Cmdliner

let words_arg =
  let doc =
    "Modes: $(b,quick) (reduced scale and iterations, for CI smoke runs), \
     $(b,no-ext) (skip the extension studies, the §II/§III-D design \
     alternatives), $(b,claims) (check the paper's findings instead of \
     printing the tables; exit 1 if one fails; skips the extension \
     studies)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"WORD" ~doc)

let run () jobs cache_dir profile words =
  let known = [ "quick"; "no-ext"; "claims" ] in
  match List.find_opt (fun w -> not (List.mem w known)) words with
  | Some w -> `Error (false, Nvsc_util.Cli.unknown ~what:"word" ~known w)
  | None ->
    let quick = List.mem "quick" words in
    let no_ext = List.mem "no-ext" words in
    let claims = List.mem "claims" words in
    let config =
      if quick then Nvsc_core.Experiment.quick_config
      else Nvsc_core.Experiment.default_config
    in
    let jobs =
      match jobs with Some n -> n | None -> Nvsc_team.Pool.default_jobs ()
    in
    let cache =
      Option.map (fun dir -> Nvsc_sweep.Cache.create ~dir ()) cache_dir
    in
    Nvsc_obs.with_profiling
      ?trace_out:(Nvsc_util.Cli.profile_trace_out profile)
      ~enabled:(Nvsc_util.Cli.profile_enabled profile)
    @@ fun () ->
    let ext = not (no_ext || claims) in
    let matrix = Nvsc_sweep.Engine.experiments_matrix ~config in
    let matrix =
      if not ext then matrix
      else
        let scale, iterations = if quick then (0.25, 3) else (0.5, 5) in
        Nvsc_sweep.Engine.with_studies ~scale ~iterations matrix
    in
    let outcomes, stats = Nvsc_sweep.Engine.run ~jobs ?cache matrix in
    let data = Nvsc_sweep.Engine.experiments_data ~config outcomes in
    Format.fprintf Format.err_formatter "%a@." Nvsc_sweep.Engine.pp_stats
      stats;
    if claims then begin
      let failed = Nvsc_core.Claims.report Format.std_formatter data in
      Format.print_flush ();
      `Ok (if failed > 0 then 1 else 0)
    end
    else begin
      Nvsc_core.Experiment.run_all_of_data Format.std_formatter data;
      (* extensions: the §II/§III-D design alternatives, unless skipped *)
      if ext then begin
        Format.print_newline ();
        Nvsc_core.Extensions.run_all Format.std_formatter
          ~texts:(Nvsc_sweep.Engine.experiments_texts outcomes)
          data
      end;
      Format.print_flush ();
      `Ok 0
    end

let cmd =
  let doc = "Regenerate the paper's evaluation tables and figures" in
  let info = Cmd.info "experiments" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ const () $ Nvsc_util.Cli.jobs $ Nvsc_util.Cli.cache_dir
       $ Nvsc_util.Cli.profile $ words_arg))

let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok code) -> exit code
  | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
