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
    ( "power profile ok",
      [ "power"; "cam"; "--scale"; "0.05"; "--iterations"; "1"; "--profile" ],
      0 );
    ( "place profile ok",
      [ "place"; "cam"; "--scale"; "0.05"; "--iterations"; "1"; "--profile" ],
      0 );
    ( "lint profile ok",
      [ "lint"; "cam"; "--scale"; "0.05"; "--iterations"; "1"; "--profile" ],
      0 );
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

(* [.nvt] traces for [replay], forged behind sealed digests, must fail
   with a [Trace_codec] error.  A REFS run longer than its chunk's count
   wrote past the decode batch, and a name length that overflowed to a
   negative int reached [Bytes.create]; both exited 125. *)
let bad_nvt_traces =
  [
    ("nvt REFS run past its count", Nvt_forge.over_long_run);
    ("nvt negative name length", Nvt_forge.negative_length);
  ]

(* Rows over temporary copies of the bad files, each with what its
   stderr must contain: the file's name, and for an [.nvt] the codec. *)
let with_bad_file_rows f =
  let paths = ref [] in
  let file suffix contents =
    let path = Filename.temp_file "nvscav-bad-file" suffix in
    paths := path :: !paths;
    Nvt_forge.write_file path contents;
    path
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !paths)
    (fun () ->
      f
        (List.map
           (fun (name, contents) ->
             let path = file ".txt" contents in
             ([ path ], (name, [ "power"; "gtc"; "--from-file"; path ], 2)))
           bad_text_traces
        @ List.map
            (fun (name, forge) ->
              let path = file ".nvt" (forge ()) in
              ([ path; "Trace_codec" ], (name, [ "replay"; path ], 2)))
            bad_nvt_traces))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_row ?(stderr_has = []) (name, args, expected) =
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
  end;
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S in %S" name sub err)
        true (contains err sub))
    stderr_has

let test_exit_codes () =
  List.iter check_row table;
  with_bad_file_rows
    (List.iter (fun (stderr_has, row) -> check_row ~stderr_has row))

let suite =
  [ Alcotest.test_case "exit-code table" `Slow test_exit_codes ]
