open Cmdliner

(* --- uniform error messages --------------------------------------------- *)

let unknown ~what ~known name =
  Printf.sprintf "unknown %s %S (known: %s)" what name
    (String.concat ", " known)

(* --- validated converters ------------------------------------------------ *)

(* Out-of-range knobs must be rejected at parse time (a usage error, exit
   code 2) — never silently clamped into a successful run, and never left
   to crash a pipeline stage as an uncaught exception. *)

let positive_float ?max ~what () =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0. -> (
      match max with
      | Some m when f > m ->
        Error (`Msg (Printf.sprintf "%s must be at most %g, got %S" what m s))
      | Some _ | None -> Ok f)
    | Some _ | None ->
      Error
        (`Msg (Printf.sprintf "%s must be a positive number, got %S" what s))
  in
  Arg.conv ~docv:"FLOAT" (parse, Format.pp_print_float)

let min_int_conv ?max ~what ~min () =
  let parse s =
    match int_of_string_opt s with
    | Some i when i >= min -> (
      match max with
      | Some m when i > m ->
        Error (`Msg (Printf.sprintf "%s must be at most %d, got %S" what m s))
      | Some _ | None -> Ok i)
    | Some _ | None ->
      Error
        (`Msg (Printf.sprintf "%s must be an integer >= %d, got %S" what min s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Applications' data grows linearly with the scale.  The largest
   extent is nek5000's global data, 593 MB at 256: every application
   still fits Nvsc_memtrace.Layout's 896 MiB global and 768 MiB heap
   segments (test_apps checks this). *)
let max_scale = 256.

(* OCaml 5's runtime runs at most 128 domains at once (Max_domains). *)
let max_jobs = 128

(* --- shared argument definitions ---------------------------------------- *)

let scale =
  let doc = "Data-size multiplier (default 1.0; use 0.25 for quick runs)." in
  Arg.(
    value
    & opt (positive_float ~max:max_scale ~what:"scale" ()) 1.0
    & info [ "scale" ] ~docv:"SCALE" ~doc)

let iterations =
  let doc = "Main-loop iterations to instrument (the paper uses 10)." in
  Arg.(
    value
    & opt (min_int_conv ~what:"iterations" ~min:1 ()) 10
    & info [ "iterations"; "n" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Worker domains (default: the machine's recommended domain count). A \
     sweep spreads its cell groups over them; a lone group (a $(b,run), \
     $(b,power) or $(b,replay)) overlaps its cache filter with the \
     application or trace decoder on a second domain and spreads its \
     technology comparison over all of them. The report is byte-identical \
     for every N."
  in
  Arg.(
    value
    & opt (some (min_int_conv ~max:max_jobs ~what:"jobs" ~min:1 ())) None
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_dir =
  let doc =
    "Directory for the content-addressed result cache; cells whose digest \
     is already present are not re-executed."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let cache_max =
  let doc = "Bound the cache to N entries (oldest evicted first)." in
  Arg.(
    value
    & opt (some (min_int_conv ~what:"cache-max" ~min:1 ())) None
    & info [ "cache-max" ] ~docv:"N" ~doc)

let apps =
  let doc = "Comma-separated applications (default: the paper's four)." in
  Arg.(
    value & opt (some (list string)) None & info [ "apps" ] ~docv:"APPS" ~doc)

let kinds =
  let doc =
    "Comma-separated analysis kinds: objects, power, perf, place (default: \
     all four)."
  in
  Arg.(
    value & opt (some (list string)) None & info [ "kinds" ] ~docv:"KINDS" ~doc)

let techs =
  let doc =
    "Comma-separated NVRAM technologies for the place cells (default: \
     sttram)."
  in
  Arg.(
    value & opt (some (list string)) None & info [ "techs" ] ~docv:"TECHS" ~doc)

let overrides =
  let doc =
    "Per-cell override, e.g. $(b,kind=perf,scale=0.5) or \
     $(b,app=cam,iterations=20).  Keys $(b,app) and $(b,kind) select cells; \
     $(b,scale) and $(b,iterations) replace their settings.  Repeatable; \
     later overrides win."
  in
  Arg.(value & opt_all string [] & info [ "override" ] ~docv:"KEY=VAL,.." ~doc)

(* --- profiling ----------------------------------------------------------- *)

type profile = Profile_off | Profile_summary | Profile_trace of string

let profile_conv =
  let parse = function
    | "" -> Ok Profile_summary
    | path -> Ok (Profile_trace path)
  in
  let print fmt = function
    | Profile_off -> Format.pp_print_string fmt "off"
    | Profile_summary -> Format.pp_print_string fmt "summary"
    | Profile_trace path -> Format.pp_print_string fmt path
  in
  Arg.conv ~docv:"FILE" (parse, print)

let profile =
  let doc =
    "Profile the run: print a span self-time table and a metrics snapshot \
     to standard error.  With $(b,--profile)=$(i,FILE), additionally write \
     a Chrome-trace JSON to $(i,FILE) (load it in chrome://tracing or \
     ui.perfetto.dev).  Use the glued $(b,--profile)=$(i,FILE) form: a \
     space-separated $(b,--profile) $(i,FILE) also works but will consume \
     the next argument as the file name."
  in
  Arg.(
    value
    & opt ~vopt:Profile_summary profile_conv Profile_off
    & info [ "profile" ] ~docv:"FILE" ~doc)

let profile_enabled = function Profile_off -> false | _ -> true
let profile_trace_out = function Profile_trace f -> Some f | _ -> None
