(* The nvscav serve subsystem: NDJSON framing, the wire protocol, the
   request planner, the resident pool, and the daemon itself — the last
   exercised in-process over a real Unix socket, including the contract
   the design leans on: client output is byte-identical to the local
   subcommand (checked against the spawned binary), a repeated request
   is a full cache hit, and one client's malformed frames or mid-stream
   disconnect never disturb the others. *)

module Json = Nvsc_util.Json
module Protocol = Nvsc_serve.Protocol
module Plan = Nvsc_serve.Plan
module Server = Nvsc_serve.Server
module Client = Nvsc_serve.Client
module Cell = Nvsc_sweep.Cell
module Pool = Nvsc_team.Pool

(* --- Json.Lines framing -------------------------------------------------- *)

let read_all s =
  let r = Json.Lines.of_string s in
  let rec loop acc =
    match Json.Lines.read r with
    | None -> List.rev acc
    | Some item -> loop (item :: acc)
  in
  loop []

let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map Json.float float;
            (* raw [string] covers control characters, quotes,
               backslashes and embedded newlines — the characters the
               one-frame-one-line property depends on escaping *)
            map (fun s -> Json.Str s) (string_size (0 -- 24));
          ]
      in
      if n = 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
            ( 1,
              map
                (fun l -> Json.Obj l)
                (list_size (0 -- 4)
                   (pair (string_size (0 -- 8)) (self (n / 2)))) );
          ])

let lines_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Lines round-trips any frame sequence"
    (QCheck.make ~print:(fun l ->
         String.concat " | " (List.map Json.to_string l))
       QCheck.Gen.(list_size (0 -- 8) json_gen))
    (fun values ->
      let encoded = String.concat "" (List.map Json.Lines.encode values) in
      (* one frame, one line, by construction *)
      List.for_all
        (fun v ->
          let line = Json.Lines.encode v in
          String.index line '\n' = String.length line - 1)
        values
      &&
      let decoded = read_all encoded in
      List.length decoded = List.length values
      && List.for_all2
           (fun v -> function Ok v' -> v = v' | Error _ -> false)
           values decoded)

let test_lines_truncated () =
  (match read_all "{\"a\":1}\n{\"b\":" with
  | [ Ok _; Error e ] ->
    Alcotest.(check int) "truncation offset" 8 e.Json.Lines.offset;
    Alcotest.(check bool)
      "message names the byte offset" true
      (Astring.String.is_infix ~affix:"byte 8" e.Json.Lines.message
       && Astring.String.is_infix ~affix:"truncated" e.Json.Lines.message)
  | _ -> Alcotest.fail "expected one frame then a truncation error");
  match read_all "" with
  | [] -> ()
  | _ -> Alcotest.fail "empty input is clean EOF, not an error"

let test_lines_oversized () =
  let r = Json.Lines.reader ~max_frame:8 (let s = "\"0123456789abcdef\"\ntrue\n" in
    let pos = ref 0 in
    fun buf dst len ->
      let n = min len (String.length s - !pos) in
      Bytes.blit_string s !pos buf dst n;
      pos := !pos + n;
      n)
  in
  (match Json.Lines.read r with
  | Some (Error e) ->
    Alcotest.(check bool)
      "oversize error names the bound" true
      (Astring.String.is_infix ~affix:"oversized" e.Json.Lines.message)
  | _ -> Alcotest.fail "expected an oversized-frame error");
  (* the oversized frame is skipped to its newline: the stream stays
     usable *)
  match Json.Lines.read r with
  | Some (Ok (Json.Bool true)) -> ()
  | _ -> Alcotest.fail "stream must recover at the next frame boundary"

let test_lines_bad_frames () =
  (match read_all "\ntrue\n" with
  | [ Error e; Ok (Json.Bool true) ] ->
    Alcotest.(check bool)
      "empty frame error" true
      (Astring.String.is_infix ~affix:"empty frame" e.Json.Lines.message)
  | _ -> Alcotest.fail "expected empty-frame error then a frame");
  match read_all "nope\n42\n" with
  | [ Error e; Ok (Json.Int 42) ] ->
    Alcotest.(check int) "parse error carries frame offset" 0
      e.Json.Lines.offset
  | _ -> Alcotest.fail "expected parse error then a frame"

(* --- Metrics.snapshot_json ----------------------------------------------- *)

let test_snapshot_json () =
  let c = Nvsc_obs.Metrics.counter "serve.test.snapshot" in
  Nvsc_obs.Metrics.Counter.incr c;
  let keys = function
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "snapshot_json must be an object"
  in
  let all = keys (Nvsc_obs.Metrics.snapshot_json ()) in
  Alcotest.(check (list string))
    "deterministic (sorted) key order"
    (List.sort compare all) all;
  Alcotest.(check bool)
    "registered counter present" true
    (List.mem "serve.test.snapshot" all);
  let stripped = keys (Nvsc_obs.Metrics.snapshot_json ~strip_time:true ()) in
  Alcotest.(check bool)
    "strip_time drops wall-clock readings" true
    (List.for_all
       (fun k -> not (Astring.String.is_suffix ~affix:"_ns" k))
       stripped)

(* --- protocol codecs ----------------------------------------------------- *)

let requests =
  [
    Protocol.Ping;
    Protocol.Stats { strip_time = true };
    Protocol.Shutdown;
    Protocol.Analyze { app = "gtc"; scale = 0.25; iterations = 3 };
    Protocol.Run { app = "cam"; scale = 1.0; iterations = 10; tech = "pcram" };
    Protocol.Replay { path = "t.nvt"; kind = "place"; tech = "sttram" };
    Protocol.Sweep
      {
        apps = Some [ "gtc"; "cam" ];
        kinds = Some [ "objects"; "perf" ];
        techs = None;
        scale = 0.5;
        iterations = 2;
        overrides = [ "kind=perf,scale=0.25" ];
        from_trace = Some "t.nvt";
      };
  ]

let test_request_roundtrip () =
  List.iteri
    (fun i req ->
      match Protocol.decode_request (Protocol.request_to_json ~id:(i + 1) req) with
      | Ok (id, req') ->
        Alcotest.(check int) "id round-trips" (i + 1) id;
        Alcotest.(check bool) "request round-trips" true (req = req')
      | Error e -> Alcotest.fail (Protocol.error_to_string e))
    requests

let test_frame_roundtrip () =
  let frames =
    [
      Protocol.Hello { protocol = 1; server = "s" };
      Protocol.Progress { id = 3; seq = 0; out = "line one\nline two\n" };
      Protocol.Done_frame
        { id = 3; cells = 4; hits = 1; misses = 3;
          result = Some (Json.Obj [ ("pong", Json.Bool true) ]) };
      Protocol.Done_frame { id = 9; cells = 0; hits = 0; misses = 0; result = None };
      Protocol.Error_frame
        { err_id = Some 7; code = "bad-request"; field = Some "app";
          message = "unknown application" };
      Protocol.Error_frame
        { err_id = None; code = "bad-frame"; field = None; message = "m" };
    ]
  in
  List.iter
    (fun f ->
      match Protocol.frame_of_json (Protocol.frame_to_json f) with
      | Ok f' -> Alcotest.(check bool) "frame round-trips" true (f = f')
      | Error msg -> Alcotest.fail msg)
    frames

let check_error ~code ~field = function
  | Ok _ -> Alcotest.fail "expected a decode error"
  | Error (e : Protocol.error) ->
    Alcotest.(check string) "error code" code e.code;
    Alcotest.(check (option string)) "offending field" field e.field

let test_request_errors () =
  let d = Protocol.decode_request in
  check_error ~code:"bad-request" ~field:(Some "nvsc")
    (d (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "ping") ]));
  check_error ~code:"version-mismatch" ~field:(Some "nvsc")
    (d (Json.Obj [ ("nvsc", Json.Int 99); ("id", Json.Int 1);
                   ("op", Json.Str "ping") ]));
  check_error ~code:"bad-request" ~field:(Some "id")
    (d (Json.Obj [ ("nvsc", Json.Int 1); ("op", Json.Str "ping") ]));
  check_error ~code:"bad-request" ~field:(Some "op")
    (d (Json.Obj [ ("nvsc", Json.Int 1); ("id", Json.Int 1) ]));
  check_error ~code:"bad-request" ~field:(Some "op")
    (d (Json.Obj [ ("nvsc", Json.Int 1); ("id", Json.Int 1);
                   ("op", Json.Str "frobnicate") ]));
  check_error ~code:"bad-request" ~field:(Some "app")
    (d (Json.Obj [ ("nvsc", Json.Int 1); ("id", Json.Int 1);
                   ("op", Json.Str "analyze") ]));
  check_error ~code:"bad-request" ~field:(Some "scale")
    (d (Json.Obj [ ("nvsc", Json.Int 1); ("id", Json.Int 1);
                   ("op", Json.Str "analyze");
                   ("args", Json.Obj [ ("app", Json.Str "gtc");
                                       ("scale", Json.Str "big") ]) ]));
  check_error ~code:"bad-request" ~field:None (d (Json.Str "nope"))

(* --- plans ---------------------------------------------------------------- *)

let test_plan_shapes () =
  (match Plan.of_request (Protocol.Analyze { app = "gtc"; scale = 0.1; iterations = 1 }) with
  | Ok plan ->
    Alcotest.(check int) "analyze is one cell" 1 (Array.length plan.Plan.specs);
    Alcotest.(check bool) "objects kind" true
      (plan.Plan.specs.(0).Cell.kind = Cell.Objects)
  | Error e -> Alcotest.fail (Protocol.error_to_string e));
  match
    Plan.of_request
      (Protocol.Run { app = "gtc"; scale = 0.1; iterations = 1; tech = "pcram" })
  with
  | Ok plan ->
    Alcotest.(check int) "run is three cells" 3 (Array.length plan.Plan.specs);
    Alcotest.(check bool) "objects, power, place" true
      (Array.map (fun s -> s.Cell.kind) plan.Plan.specs
      = [| Cell.Objects; Cell.Power; Cell.Place |]);
    Alcotest.(check bool) "place cell carries the tech" true
      (plan.Plan.specs.(2).Cell.tech = Some Nvsc_nvram.Technology.PCRAM)
  | Error e -> Alcotest.fail (Protocol.error_to_string e)

let plan_error ~field req =
  match Plan.of_request req with
  | Ok _ -> Alcotest.fail "expected the plan to be rejected"
  | Error e ->
    Alcotest.(check string) "bad-request" "bad-request" e.Protocol.code;
    Alcotest.(check (option string)) "offending field" (Some field)
      e.Protocol.field

let test_plan_errors () =
  plan_error ~field:"app"
    (Protocol.Analyze { app = "nosuchapp"; scale = 1.; iterations = 1 });
  plan_error ~field:"scale"
    (Protocol.Analyze { app = "gtc"; scale = 0.; iterations = 1 });
  plan_error ~field:"iterations"
    (Protocol.Analyze { app = "gtc"; scale = 1.; iterations = 0 });
  plan_error ~field:"tech"
    (Protocol.Run { app = "gtc"; scale = 1.; iterations = 1; tech = "unobtainium" });
  plan_error ~field:"tech"
    (Protocol.Run { app = "gtc"; scale = 1.; iterations = 1; tech = "ddr3" });
  plan_error ~field:"tech"
    (Protocol.Replay
       { path = "/nonexistent.nvt"; kind = "place"; tech = "ddr3" });
  (match
     Plan.of_request
       (Protocol.Sweep
          { apps = None; kinds = Some [ "place" ]; techs = Some [ "ddr3" ];
            scale = 1.; iterations = 1; overrides = []; from_trace = None })
   with
  | Ok _ -> Alcotest.fail "a DDR3 place cell must be rejected"
  | Error e ->
    Alcotest.(check string) "sweep bad-request" "bad-request" e.Protocol.code);
  plan_error ~field:"path"
    (Protocol.Replay { path = "/nonexistent.nvt"; kind = "run"; tech = "sttram" });
  plan_error ~field:"kinds"
    (Protocol.Sweep
       { apps = None; kinds = Some [ "nosuchkind" ]; techs = None; scale = 1.;
         iterations = 1; overrides = []; from_trace = None });
  plan_error ~field:"overrides"
    (Protocol.Sweep
       { apps = None; kinds = None; techs = None; scale = 1.; iterations = 1;
         overrides = [ "bogus=1" ]; from_trace = None });
  (* a trace without objects has nothing to place, and says so before
     anything runs; its other kinds still plan *)
  let path = Filename.temp_file "nvsc-no-objects" ".nvt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Nvt_forge.write_file path (Nvt_forge.no_objects ());
  let replay kind = Protocol.Replay { path; kind; tech = "sttram" } in
  plan_error ~field:"path" (replay "run");
  plan_error ~field:"path" (replay "place");
  plan_error ~field:"path"
    (Protocol.Sweep
       { apps = None; kinds = Some [ "objects"; "place" ]; techs = None;
         scale = 1.; iterations = 1; overrides = []; from_trace = Some path });
  Alcotest.(check bool) "objects replay plans" true
    (Result.is_ok (Plan.of_request (replay "objects")))

(* --- resident pool -------------------------------------------------------- *)

let test_pool_resident () =
  let pool = Pool.create ~jobs:2 () in
  let tickets =
    List.init 16 (fun i -> Pool.submit pool (fun () -> i * i))
  in
  List.iteri
    (fun i ticket ->
      match Pool.await ticket with
      | Pool.Done v -> Alcotest.(check int) "task result" (i * i) v
      | _ -> Alcotest.fail "task should complete")
    tickets;
  (match Pool.await (Pool.submit ~cancelled:(fun () -> true) pool (fun () -> 1)) with
  | Pool.Cancelled -> ()
  | _ -> Alcotest.fail "a cancelled task must never run");
  (match Pool.await (Pool.submit pool (fun () -> failwith "boom")) with
  | Pool.Failed (Failure msg) when msg = "boom" -> ()
  | _ -> Alcotest.fail "exceptions surface as Failed");
  Pool.shutdown pool;
  match Pool.submit pool (fun () -> 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown must be rejected"

let test_pool_shutdown_cancels_queued () =
  let pool = Pool.create ~jobs:1 () in
  let blocker = Pool.submit pool (fun () -> Thread.delay 0.3; "done") in
  (* give the single worker time to pick the blocker up *)
  Thread.delay 0.05;
  let queued = Pool.submit pool (fun () -> "ran") in
  Pool.shutdown pool;
  (match Pool.await blocker with
  | Pool.Done "done" -> ()
  | _ -> Alcotest.fail "a running task completes across shutdown");
  match Pool.await queued with
  | Pool.Cancelled -> ()
  | _ -> Alcotest.fail "a never-started task resolves as Cancelled"

(* --- the daemon, in-process over a real socket ---------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "nvscav-serve-test" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_server ?(jobs = 2) ?max_frame ?max_queue f =
  let dir = temp_dir () in
  let sock = Filename.concat dir "nvscav.sock" in
  let cfg =
    {
      Server.default with
      socket = Some sock;
      jobs = Some jobs;
      cache_dir = Some (Filename.concat dir "cache");
      max_frame = Option.value max_frame ~default:Server.default.Server.max_frame;
      max_queue = Option.value max_queue ~default:Server.default.Server.max_queue;
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      remove_tree dir)
    (fun () -> f ~sock t)

let connect_exn sock =
  match Client.connect ~socket:sock () with
  | Ok c -> c
  | Error msg -> Alcotest.fail msg

let request_exn ?on_output c req =
  match Client.request ?on_output c req with
  | Ok reply -> reply
  | Error msg -> Alcotest.fail msg

let collect_output c req =
  let buf = Buffer.create 1024 in
  let reply = request_exn ~on_output:(Buffer.add_string buf) c req in
  (Buffer.contents buf, reply)

let analyze_req =
  Protocol.Analyze { app = "gtc"; scale = 0.1; iterations = 1 }

let test_ping_and_stats () =
  with_server @@ fun ~sock _t ->
  let c = connect_exn sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let reply = request_exn c Protocol.Ping in
  Alcotest.(check int) "ping touches no cells" 0 reply.Client.cells;
  let reply = request_exn c (Protocol.Stats { strip_time = true }) in
  match reply.Client.result with
  | Some json ->
    Alcotest.(check int) "stats reports the protocol version" Protocol.version
      (Json.to_int (Json.member "protocol" json));
    (match Json.member "metrics" json with
    | Json.Obj _ -> ()
    | _ -> Alcotest.fail "stats carries the metrics registry")
  | None -> Alcotest.fail "stats must return a result"

let test_warm_cache () =
  with_server @@ fun ~sock _t ->
  let c = connect_exn sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let cold_out, cold = collect_output c analyze_req in
  Alcotest.(check int) "cold request misses every cell" cold.Client.cells
    cold.Client.misses;
  let warm_out, warm = collect_output c analyze_req in
  Alcotest.(check int) "warm request misses nothing" 0 warm.Client.misses;
  Alcotest.(check int) "warm request hits every cell" warm.Client.cells
    warm.Client.hits;
  Alcotest.(check string) "cached output is byte-identical" cold_out warm_out

(* [run] after [analyze] reuses the cached objects cell, and its two
   missing cells share one application run. *)
let test_run_after_analyze_shares_cells () =
  with_server @@ fun ~sock _t ->
  let c = connect_exn sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let runs = Nvsc_obs.Metrics.counter "scavenger.runs" in
  let _ = request_exn c analyze_req in
  let before = Nvsc_obs.Metrics.Counter.get runs in
  let reply =
    request_exn c
      (Protocol.Run { app = "gtc"; scale = 0.1; iterations = 1; tech = "sttram" })
  in
  Alcotest.(check int) "objects cell served from the cache" 1 reply.Client.hits;
  Alcotest.(check int) "power and place cells computed" 2 reply.Client.misses;
  Alcotest.(check int) "in one scavenger run" 1
    (Nvsc_obs.Metrics.Counter.get runs - before)

(* The daemon runs its plans through the same executor as the CLI: for
   the same plan against a cache in the same state, its done frame
   reports the engine's own per-call counts — cold, partly warm (the
   objects cell from an earlier analyze) and warm. *)
let test_done_counts_equal_engine () =
  let cache = Nvsc_sweep.Cache.create ~dir:(temp_dir ()) () in
  Fun.protect ~finally:(fun () -> remove_tree (Nvsc_sweep.Cache.dir cache))
  @@ fun () ->
  let run_req =
    Protocol.Run { app = "gtc"; scale = 0.1; iterations = 1; tech = "sttram" }
  in
  let engine_counts req =
    match Plan.of_request req with
    | Error e -> Alcotest.fail e.Protocol.message
    | Ok plan ->
      let _, s =
        Nvsc_sweep.Engine.run_specs ~jobs:1 ~cache ?trace:plan.Plan.trace
          plan.Plan.specs
      in
      (s.Nvsc_sweep.Engine.cells, s.hits, s.misses)
  in
  with_server @@ fun ~sock _t ->
  let c = connect_exn sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (label, req) ->
      let reply = request_exn c req in
      Alcotest.(check (triple int int int))
        (label ^ ": done frame = engine stats")
        (engine_counts req)
        (reply.Client.cells, reply.Client.hits, reply.Client.misses))
    [
      ("cold analyze", analyze_req);
      ("run after analyze", run_req);
      ("warm run", run_req);
    ]

(* Four concurrent clients — two analyzes, a sweep and a stats poll —
   each checked byte-for-byte against the spawned local binary. *)
let test_concurrent_clients_byte_identical () =
  let expected_analyze =
    let code, out, err =
      Test_cli_exit.run_nvscav
        [ "analyze"; "gtc"; "--scale"; "0.1"; "--iterations"; "1" ]
    in
    Alcotest.(check int) ("local analyze: " ^ err) 0 code;
    out
  in
  let expected_sweep =
    let code, out, err =
      Test_cli_exit.run_nvscav
        [ "sweep"; "--apps"; "gtc"; "--kinds"; "objects,place"; "--scale";
          "0.1"; "--iterations"; "1" ]
    in
    Alcotest.(check int) ("local sweep: " ^ err) 0 code;
    out
  in
  let sweep_req =
    Protocol.Sweep
      { apps = Some [ "gtc" ]; kinds = Some [ "objects"; "place" ];
        techs = None; scale = 0.1; iterations = 1; overrides = [];
        from_trace = None }
  in
  with_server @@ fun ~sock _t ->
  let results = Array.make 4 (Error "never ran") in
  let worker i req () =
    results.(i) <-
      (match Client.connect ~socket:sock () with
      | Error msg -> Error msg
      | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let buf = Buffer.create 1024 in
        (match Client.request ~on_output:(Buffer.add_string buf) c req with
        | Error msg -> Error msg
        | Ok reply -> Ok (Buffer.contents buf, reply)))
  in
  let threads =
    [
      Thread.create (worker 0 analyze_req) ();
      Thread.create (worker 1 sweep_req) ();
      Thread.create (worker 2 (Protocol.Stats { strip_time = true })) ();
      Thread.create (worker 3 analyze_req) ();
    ]
  in
  List.iter Thread.join threads;
  let output i =
    match results.(i) with
    | Ok (out, reply) -> (out, reply)
    | Error msg -> Alcotest.fail (Printf.sprintf "client %d: %s" i msg)
  in
  let out0, _ = output 0 in
  let out1, _ = output 1 in
  let _, stats_reply = output 2 in
  let out3, _ = output 3 in
  Alcotest.(check string) "client analyze is byte-identical to local"
    expected_analyze out0;
  Alcotest.(check string) "client sweep is byte-identical to local"
    expected_sweep out1;
  Alcotest.(check string) "concurrent identical analyzes agree" out0 out3;
  Alcotest.(check bool) "stats served alongside analyses" true
    (stats_reply.Client.result <> None);
  (* both analyze clients wanted the same objects cell, and the sweep
     shared it too: the pool computed it at most twice (the concurrent
     cold requests may race), never four times *)
  let c = connect_exn sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let _, warm = collect_output c analyze_req in
  Alcotest.(check int) "afterwards the cache is warm" 0 warm.Client.misses

(* --- raw-socket abuse ----------------------------------------------------- *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let reader =
    Json.Lines.reader (fun buf pos len ->
        try Unix.read fd buf pos len
        with Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> 0)
  in
  (match Json.Lines.read reader with
  | Some (Ok json) -> (
    match Protocol.frame_of_json json with
    | Ok (Protocol.Hello _) -> ()
    | _ -> Alcotest.fail "expected a hello frame")
  | _ -> Alcotest.fail "expected a hello frame");
  (fd, reader)

let raw_send fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "short write" (String.length s) n

let raw_read_frame reader =
  match Json.Lines.read reader with
  | Some (Ok json) -> (
    match Protocol.frame_of_json json with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg)
  | Some (Error e) -> Alcotest.fail e.Json.Lines.message
  | None -> Alcotest.fail "connection closed unexpectedly"

let expect_error ~code frame =
  match frame with
  | Protocol.Error_frame e ->
    Alcotest.(check string) "error code" code e.Protocol.code
  | _ -> Alcotest.fail ("expected an error frame with code " ^ code)

let test_malformed_frames () =
  with_server ~max_frame:256 @@ fun ~sock _t ->
  let fd, reader = raw_connect sock in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* unparseable JSON *)
  raw_send fd "this is not json\n";
  expect_error ~code:"bad-frame" (raw_read_frame reader);
  (* oversized frame — skipped to its newline, connection survives *)
  raw_send fd (String.make 300 'x' ^ "\n");
  expect_error ~code:"bad-frame" (raw_read_frame reader);
  (* well-formed JSON, wrong shape: names the offending field *)
  raw_send fd "{\"id\":7,\"op\":\"ping\"}\n";
  (match raw_read_frame reader with
  | Protocol.Error_frame e ->
    Alcotest.(check string) "code" "bad-request" e.Protocol.code;
    Alcotest.(check (option string)) "field" (Some "nvsc") e.Protocol.field;
    Alcotest.(check (option int)) "id echoed" (Some 7) e.Protocol.err_id
  | _ -> Alcotest.fail "expected an error frame");
  (* version mismatch *)
  raw_send fd "{\"nvsc\":99,\"id\":8,\"op\":\"ping\"}\n";
  expect_error ~code:"version-mismatch" (raw_read_frame reader);
  (* and after all that abuse, a valid request still works *)
  raw_send fd
    (Json.Lines.encode (Protocol.request_to_json ~id:9 Protocol.Ping));
  match raw_read_frame reader with
  | Protocol.Done_frame { id; _ } -> Alcotest.(check int) "ping answered" 9 id
  | _ -> Alcotest.fail "expected the ping's done frame"

let test_disconnect_leaves_server_serving () =
  with_server ~jobs:1 @@ fun ~sock _t ->
  (* client A starts a three-cell request and vanishes after the first
     progress frame *)
  let fd, reader = raw_connect sock in
  raw_send fd
    (Json.Lines.encode
       (Protocol.request_to_json ~id:1
          (Protocol.Run
             { app = "gtc"; scale = 0.1; iterations = 1; tech = "sttram" })));
  (match raw_read_frame reader with
  | Protocol.Progress { seq; _ } -> Alcotest.(check int) "first chunk" 0 seq
  | _ -> Alcotest.fail "expected the first progress frame");
  Unix.close fd;
  (* client B is served as if nothing happened *)
  let c = connect_exn sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let out, reply = collect_output c analyze_req in
  Alcotest.(check bool) "analyze still served" true (String.length out > 0);
  Alcotest.(check int) "one cell" 1 reply.Client.cells;
  let reply = request_exn c Protocol.Ping in
  Alcotest.(check int) "still answering pings" 0 reply.Client.cells

let test_shutdown_request () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "nvscav.sock" in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let t =
    Server.start
      { Server.default with socket = Some sock;
        cache_dir = Some (Filename.concat dir "cache"); jobs = Some 1 }
  in
  let c = connect_exn sock in
  let _ = request_exn c Protocol.Shutdown in
  Client.close c;
  Server.await t;
  Alcotest.(check bool) "socket file removed on shutdown" false
    (Sys.file_exists sock)

let suite =
  [
    QCheck_alcotest.to_alcotest lines_roundtrip;
    Alcotest.test_case "Lines: truncated frames" `Quick test_lines_truncated;
    Alcotest.test_case "Lines: oversized frames" `Quick test_lines_oversized;
    Alcotest.test_case "Lines: empty and unparseable frames" `Quick
      test_lines_bad_frames;
    Alcotest.test_case "Metrics.snapshot_json" `Quick test_snapshot_json;
    Alcotest.test_case "protocol: request round-trip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "protocol: frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "protocol: errors name the field" `Quick
      test_request_errors;
    Alcotest.test_case "plan: request decomposition" `Quick test_plan_shapes;
    Alcotest.test_case "plan: validation errors" `Quick test_plan_errors;
    Alcotest.test_case "pool: resident submit/await" `Quick test_pool_resident;
    Alcotest.test_case "pool: shutdown cancels queued tasks" `Quick
      test_pool_shutdown_cancels_queued;
    Alcotest.test_case "server: ping and stats" `Quick test_ping_and_stats;
    Alcotest.test_case "server: repeated request is a full cache hit" `Slow
      test_warm_cache;
    Alcotest.test_case "server: run after analyze, one run for two misses"
      `Slow test_run_after_analyze_shares_cells;
    Alcotest.test_case "server: done counts equal the engine's" `Slow
      test_done_counts_equal_engine;
    Alcotest.test_case "server: concurrent clients, byte-identical output"
      `Slow test_concurrent_clients_byte_identical;
    Alcotest.test_case "server: malformed frames answered, connection kept"
      `Quick test_malformed_frames;
    Alcotest.test_case "server: disconnect cancels only that client" `Slow
      test_disconnect_leaves_server_serving;
    Alcotest.test_case "server: shutdown request stops the daemon" `Quick
      test_shutdown_request;
  ]
