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

(* The committed NVT fixture, for rows that need a trace to replay. *)
let golden_nvt = Option.value ~default:"" (Sys.getenv_opt "GOLDEN_NVT")

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
    (* DDR3 is no NVRAM half: rejected before the application runs *)
    ("run ddr3 tech", [ "run"; "gtc"; "--tech"; "ddr3" ], 2);
    ("place ddr3 tech", [ "place"; "gtc"; "--tech"; "ddr3" ], 2);
    ("hybrid ddr3 tech", [ "hybrid"; "gtc"; "--tech"; "ddr3" ], 2);
    ("hybrid unknown tech", [ "hybrid"; "gtc"; "--tech"; "unobtainium" ], 2);
    ( "replay ddr3 tech",
      [ "replay"; golden_nvt; "--kind"; "place"; "--tech"; "ddr3" ],
      2 );
    ( "sweep ddr3 tech",
      [ "sweep"; "--kinds"; "place"; "--techs"; "ddr3"; "--apps"; "gtc" ],
      2 );
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

(* Upper bounds on [--jobs] (the runtime's domain limit) and [--scale]
   (what fits the address-space segments), with what stderr must name.
   They are refused before any run starts, so these rows never start a
   large width or scale. *)
let bound_rows =
  [
    ( ("jobs above the domain limit", [ "run"; "gtc"; "--jobs"; "129" ], 2),
      "at most 128" );
    ( ( "replay jobs above the domain limit",
        [ "replay"; golden_nvt; "-j"; "100000" ],
        2 ),
      "at most 128" );
    ( ("scale above the segments", [ "run"; "gtc"; "--scale"; "257" ], 2),
      "at most 256" );
    ( ("sweep scale above the segments", [ "sweep"; "--scale"; "1e9" ], 2),
      "at most 256" );
    ( ( "sweep override scale above the segments",
        [ "sweep"; "--override"; "scale=300" ],
        2 ),
      "bad scale" );
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
    (* past max_int: the hex literal wraps to a negative int *)
    ("address out of range", "0x7fffffffffffffc0 READ 0\n");
    (* one line with no newline: refused at the cap, quoted by a prefix *)
    ("over-long line", String.make 1_000_000 '7');
  ]

(* [.nvt] traces for [replay], with the extra arguments each is replayed
   with and what its stderr must name.  Damage forged behind sealed
   digests must fail with a [Trace_codec] error: a REFS run longer than
   its chunk's count wrote past the decode batch, a name length that
   overflowed to a negative int reached [Bytes.create], and a negative
   address reached the cache filter; all three exited 125.  A reference
   wider than the format allows would make the cache filter walk
   unboundedly many lines.  A trace with
   no objects has nothing to place: [run] and [place] replays of one
   died in the placement (exit 125). *)
let bad_nvt_traces =
  [
    ("nvt REFS run past its count", Nvt_forge.over_long_run, [], "Trace_codec");
    ("nvt negative name length", Nvt_forge.negative_length, [], "Trace_codec");
    ("nvt negative address", Nvt_forge.negative_address, [], "Trace_codec");
    ( "nvt oversized reference",
      Nvt_forge.oversized_reference,
      [],
      "Trace_codec" );
    ("nvt without objects, run", Nvt_forge.no_objects, [], "no objects");
    ( "nvt without objects, place",
      Nvt_forge.no_objects,
      [ "--kind"; "place" ],
      "no objects" );
  ]

(* Rows over temporary copies of the bad files, each with what its
   stderr must contain: the file's name, and for an [.nvt] its row's
   word. *)
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
        @ List.concat_map
            (fun (name, forge, args, names) ->
              let path = file ".nvt" (forge ()) in
              (* serial, and with the cache filter staged on a second
                 domain while the decoder fails *)
              List.map
                (fun jobs ->
                  ( [ path; names ],
                    ( Printf.sprintf "%s, --jobs %s" name jobs,
                      ("replay" :: path :: args) @ [ "--jobs"; jobs ],
                      2 ) ))
                [ "1"; "2" ])
            bad_nvt_traces))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_row ?(stderr_has = []) (name, args, expected) =
  let code, out, err = run_nvscav args in
  (* a bad input is quoted by a short prefix, never echoed whole *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: stderr is short (%d bytes)" name (String.length err))
    true
    (String.length err < 4096);
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
  List.iter (fun (row, word) -> check_row ~stderr_has:[ word ] row) bound_rows;
  with_bad_file_rows
    (List.iter (fun (stderr_has, row) -> check_row ~stderr_has row))

let suite =
  [ Alcotest.test_case "exit-code table" `Slow test_exit_codes ]
