(* The nvscav exit-code contract, end-to-end against the real binary:
   0 success, 2 for every usage error (with a diagnostic on stderr and
   nothing on stdout).  Historically parse errors leaked cmdliner's 124,
   [--jobs 0] was silently clamped into a successful run, and
   out-of-range [--scale]/[--iterations] escaped as uncaught exceptions
   (125); this table pins each of those down. *)

let nvscav =
  lazy
    (match Sys.getenv_opt "NVSCAV" with
    | None -> Alcotest.fail "NVSCAV is not set (run the tests through dune)"
    | Some p ->
      if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Spawn the binary with stdout/stderr captured; returns
   (exit code, stdout, stderr). *)
let run_nvscav args =
  let exe = Lazy.force nvscav in
  let out_f = Filename.temp_file "nvscav-out" ".txt" in
  let err_f = Filename.temp_file "nvscav-err" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out_f with Sys_error _ -> ());
      try Sys.remove err_f with Sys_error _ -> ())
    (fun () ->
      let fd_out = Unix.openfile out_f [ O_WRONLY; O_TRUNC ] 0o600 in
      let fd_err = Unix.openfile err_f [ O_WRONLY; O_TRUNC ] 0o600 in
      let fd_in = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
      let pid =
        Unix.create_process exe
          (Array.of_list (exe :: args))
          fd_in fd_out fd_err
      in
      Unix.close fd_in;
      Unix.close fd_out;
      Unix.close fd_err;
      let _, status = Unix.waitpid [] pid in
      let code =
        match status with
        | Unix.WEXITED n -> n
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
      in
      (code, read_file out_f, read_file err_f))

(* (name, argv, expected exit code) — every expected-2 row is a usage
   error and must also leave a diagnostic on stderr and stdout empty. *)
let table =
  [
    ("unknown application", [ "analyze"; "nosuchapp" ], 2);
    ("unknown subcommand", [ "nosuchcmd" ], 2);
    ("missing positional", [ "analyze" ], 2);
    ("unknown flag", [ "list"; "--nosuchflag" ], 2);
    ("jobs zero", [ "sweep"; "--jobs"; "0"; "--apps"; "gtc" ], 2);
    ("run jobs zero", [ "run"; "gtc"; "--jobs"; "0" ], 2);
    ("iterations zero", [ "analyze"; "gtc"; "--iterations"; "0" ], 2);
    ("scale zero", [ "analyze"; "gtc"; "--scale"; "0" ], 2);
    ("scale negative", [ "analyze"; "gtc"; "--scale"; "-1" ], 2);
    ("scale not a number", [ "analyze"; "gtc"; "--scale"; "lots" ], 2);
    ("cache-max zero", [ "sweep"; "--cache-max"; "0"; "--apps"; "gtc" ], 2);
    ("missing trace file", [ "power"; "gtc"; "--from-file"; "/nonexistent" ], 2);
    ("replay missing trace", [ "replay"; "/nonexistent.nvt" ], 2);
    ("sweep bad override", [ "sweep"; "--override"; "bogus=1" ], 2);
    ("sweep unknown kind", [ "sweep"; "--kinds"; "nosuchkind" ], 2);
    ("unknown technology", [ "run"; "gtc"; "--tech"; "unobtainium" ], 2);
    ("client no daemon", [ "client"; "ping"; "--socket"; "/nonexistent.sock" ], 2);
    ("serve bad port", [ "serve"; "--port"; "0" ], 2);
    ("list ok", [ "list" ], 0);
    ("version ok", [ "--version" ], 0);
    ("help ok", [ "analyze"; "--help=plain" ], 0);
    ("perf profile ok", [ "perf"; "gtc"; "--scale"; "0.05"; "--profile" ], 0);
  ]

(* DRAMSim2 text traces [power --from-file] must refuse with a
   positioned message.  A negative address used to decode to a negative
   rank or bank and either print nonsense (exit 0) or index the
   controller's arrays out of bounds; a malformed record escaped as an
   uncaught [Failure] (exit 125). *)
let bad_text_traces =
  [
    ("negative address before a valid one", "-0x100000 READ 0\n0x40 READ 1\n");
    ("negative address", "-0x20000 READ 0\n");
    ("malformed text record", "zzz READ 0\n");
  ]

let with_text_trace_rows f =
  let rows =
    List.map
      (fun (name, contents) ->
        let path = Filename.temp_file "nvscav-text-trace" ".txt" in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc contents);
        (name, [ "power"; "gtc"; "--from-file"; path ], 2))
      bad_text_traces
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (_, args, _) ->
          try Sys.remove (List.nth args 3) with Sys_error _ -> ())
        rows)
    (fun () -> f rows)

let test_exit_codes () =
  with_text_trace_rows @@ fun trace_rows ->
  List.iter
    (fun (name, args, expected) ->
      let code, out, err = run_nvscav args in
      Alcotest.(check int)
        (Printf.sprintf "%s: exit code of `nvscav %s`" name
           (String.concat " " args))
        expected code;
      if expected = 2 then begin
        Alcotest.(check bool)
          (name ^ ": usage error leaves a diagnostic on stderr")
          true (String.length err > 0);
        Alcotest.(check string)
          (name ^ ": usage error prints nothing on stdout")
          "" out
      end)
    (table @ trace_rows)

let suite =
  [ Alcotest.test_case "exit-code table" `Slow test_exit_codes ]
