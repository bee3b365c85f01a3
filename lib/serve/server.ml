module Json = Nvsc_util.Json
module Metrics = Nvsc_obs.Metrics
module Pool = Nvsc_team.Pool
module Cache = Nvsc_sweep.Cache
module Engine = Nvsc_sweep.Engine

let m_connections = Metrics.gauge "serve.connections"
let m_inflight = Metrics.gauge "serve.inflight"
let m_requests = Metrics.counter "serve.requests"
let m_errors = Metrics.counter "serve.errors"
let m_bad_frames = Metrics.counter "serve.bad_frames"

type config = {
  socket : string option;
  port : int option;
  jobs : int option;
  cache_dir : string option;
  cache_max : int option;
  max_queue : int;
  max_frame : int;
}

let default =
  {
    socket = Some "nvscav.sock";
    port = None;
    jobs = None;
    cache_dir = None;
    cache_max = None;
    max_queue = 64;
    max_frame = Json.Lines.default_max_frame;
  }

type listener = { lfd : Unix.file_descr; lpath : string option }

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Cache.t;
  temp_cache : bool;
  listeners : listener list;
  stopping : bool Atomic.t;
  conns : int Atomic.t;
  inflight : int Atomic.t;
  finalized : bool Atomic.t;
  mutable accept_thread : Thread.t option;
}

(* --- socket plumbing ---------------------------------------------------- *)

exception Closed
(** The peer went away mid-write; tears down one connection, never the
    server. *)

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s pos len
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
      raise Closed

let send_frame fd frame =
  let line = Json.Lines.encode (Protocol.frame_to_json frame) in
  write_all fd line 0 (String.length line)

(* Connection reads poll so a stopping server can simulate EOF between
   frames: handlers drain their current request, then see the stream
   end and close.  An idle keep-alive connection therefore never blocks
   shutdown for more than the poll interval. *)
let refill t fd buf pos len =
  let rec loop () =
    if Atomic.get t.stopping then 0
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
        try Unix.read fd buf pos len
        with Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> 0)
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ()

let listen_unix path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    (* A leftover socket file from a dead daemon is reclaimed; a live
       one is an error, not a takeover. *)
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if alive then
      failwith (Printf.sprintf "%s: a server is already listening" path);
    Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s: exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  { lfd = fd; lpath = Some path }

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  { lfd = fd; lpath = None }

(* --- request execution -------------------------------------------------- *)

(* The engine looks up, schedules, stores and orders; this only turns
   outcomes into frames.  A vanished client flips [disconnected]: its
   still-queued groups are dropped, running ones finish and are stored. *)
let run_plan t ~send ~id (plan : Plan.t) =
  let disconnected = Atomic.make false in
  let on_outcome i (o : Engine.outcome) =
    if not (Atomic.get disconnected) then
      let out = Plan.chunk plan i o.payload in
      try send (Protocol.Progress { id; seq = i; out })
      with Closed -> Atomic.set disconnected true
  in
  let result =
    match
      Engine.run_specs ~pool:t.pool
        ~cancelled:(fun () -> Atomic.get disconnected)
        ~cache:t.cache ?trace:plan.Plan.trace ~on_outcome plan.Plan.specs
    with
    | _, stats -> Ok stats
    | exception e -> Error e
  in
  if Atomic.get disconnected then raise Closed;
  match result with
  | Ok { Engine.cells; hits; misses; _ } ->
    send (Protocol.Done_frame { id; cells; hits; misses; result = None })
  | Error e ->
    Metrics.Counter.incr m_errors;
    let message =
      match e with
      | Engine.Cancelled -> "request was cancelled"
      | e -> Printexc.to_string e
    in
    send
      (Protocol.Error_frame
         { err_id = Some id; code = "failed"; field = None; message })

let stats_json t ~strip_time =
  Json.Obj
    [
      ("protocol", Json.Int Protocol.version);
      ("server", Json.Str Protocol.server_name);
      ("jobs", Json.Int (Pool.jobs t.pool));
      ("connections", Json.Int (Atomic.get t.conns));
      ("inflight", Json.Int (Atomic.get t.inflight));
      ("max_queue", Json.Int (t.cfg.max_queue));
      ("cache_dir", Json.Str (Cache.dir t.cache));
      ("profiling", Json.Bool (Nvsc_obs.enabled ()));
      ("metrics", Metrics.snapshot_json ~strip_time ());
    ]

let request_stop t = Atomic.set t.stopping true

let handle_frame t ~send json =
  match Protocol.decode_request json with
  | Error e ->
    Metrics.Counter.incr m_errors;
    send (Protocol.Error_frame e)
  | Ok (id, req) -> (
    Metrics.Counter.incr m_requests;
    let empty_done result =
      Protocol.Done_frame { id; cells = 0; hits = 0; misses = 0; result }
    in
    if Atomic.get t.stopping then
      send
        (Protocol.Error_frame
           {
             err_id = Some id;
             code = "shutting-down";
             field = None;
             message = "server is shutting down";
           })
    else
      match req with
      | Protocol.Ping ->
        send (empty_done (Some (Json.Obj [ ("pong", Json.Bool true) ])))
      | Protocol.Stats { strip_time } ->
        send (empty_done (Some (stats_json t ~strip_time)))
      | Protocol.Shutdown ->
        send (empty_done None);
        request_stop t
      | Protocol.Analyze _ | Protocol.Run _ | Protocol.Replay _
      | Protocol.Sweep _ ->
        if Atomic.get t.inflight >= t.cfg.max_queue then begin
          Metrics.Counter.incr m_errors;
          send
            (Protocol.Error_frame
               {
                 err_id = Some id;
                 code = "overloaded";
                 field = None;
                 message =
                   Printf.sprintf
                     "server is at its limit of %d in-flight request(s)"
                     t.cfg.max_queue;
               })
        end
        else begin
          Atomic.incr t.inflight;
          Metrics.Gauge.set m_inflight (float_of_int (Atomic.get t.inflight));
          Fun.protect
            ~finally:(fun () ->
              Atomic.decr t.inflight;
              Metrics.Gauge.set m_inflight
                (float_of_int (Atomic.get t.inflight)))
            (fun () ->
              match Plan.of_request req with
              | Error e ->
                Metrics.Counter.incr m_errors;
                send (Protocol.Error_frame { e with err_id = Some id })
              | Ok plan -> run_plan t ~send ~id plan)
        end)

let handle_conn t cfd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close cfd with Unix.Unix_error _ -> ());
      Atomic.decr t.conns;
      Metrics.Gauge.set m_connections (float_of_int (Atomic.get t.conns)))
  @@ fun () ->
  let send frame = send_frame cfd frame in
  try
    send
      (Protocol.Hello
         { protocol = Protocol.version; server = Protocol.server_name });
    let reader =
      Json.Lines.reader ~max_frame:t.cfg.max_frame (refill t cfd)
    in
    let rec loop () =
      match Json.Lines.read reader with
      | None -> ()
      | Some (Error fe) ->
        Metrics.Counter.incr m_bad_frames;
        send
          (Protocol.Error_frame
             {
               err_id = None;
               code = "bad-frame";
               field = None;
               message = fe.Json.Lines.message;
             });
        loop ()
      | Some (Ok json) ->
        handle_frame t ~send json;
        loop ()
    in
    loop ()
  with Closed -> ()

let accept_loop t () =
  let fds = List.map (fun l -> l.lfd) t.listeners in
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select fds [] [] 0.2 with
      | ready, _, _ ->
        List.iter
          (fun lfd ->
            match Unix.accept ~cloexec:true lfd with
            | cfd, _ ->
              Atomic.incr t.conns;
              Metrics.Gauge.set m_connections
                (float_of_int (Atomic.get t.conns));
              ignore (Thread.create (handle_conn t) cfd)
            | exception Unix.Unix_error _ -> ())
          ready
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle ---------------------------------------------------------- *)

let temp_counter = Atomic.make 0

let temp_cache_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "nvscav-serve-%d-%d" (Unix.getpid ())
       (Atomic.fetch_and_add temp_counter 1))

let remove_tree dir =
  let rec rm path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  rm dir

let start cfg =
  if cfg.socket = None && cfg.port = None then
    invalid_arg "Server.start: no socket path and no port to listen on";
  (* A client vanishing mid-write must surface as EPIPE, not kill the
     daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listeners =
    List.concat
      [
        (match cfg.socket with Some p -> [ listen_unix p ] | None -> []);
        (match cfg.port with Some p -> [ listen_tcp p ] | None -> []);
      ]
  in
  let cache_dir, temp_cache =
    match cfg.cache_dir with
    | Some dir -> (dir, false)
    | None -> (temp_cache_dir (), true)
  in
  let t =
    {
      cfg;
      pool = Pool.create ?jobs:cfg.jobs ();
      cache = Cache.create ~dir:cache_dir ?max_entries:cfg.cache_max ();
      temp_cache;
      listeners;
      stopping = Atomic.make false;
      conns = Atomic.make 0;
      inflight = Atomic.make 0;
      finalized = Atomic.make false;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let endpoints t =
  List.concat
    [
      (match t.cfg.socket with Some p -> [ Printf.sprintf "unix:%s" p ] | None -> []);
      (match t.cfg.port with
      | Some p -> [ Printf.sprintf "tcp:127.0.0.1:%d" p ]
      | None -> []);
    ]

let await t =
  (* Poll rather than block in [Thread.join] so signal handlers (which
     run on this thread) get a chance to set the stop flag. *)
  while not (Atomic.get t.stopping) do
    try Thread.delay 0.1 with Unix.Unix_error (EINTR, _, _) -> ()
  done;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (* Drain: connection handlers notice the stop flag within one poll
     interval; whatever they were executing completes first. *)
  while Atomic.get t.conns > 0 || Atomic.get t.inflight > 0 do
    Thread.delay 0.05
  done;
  if not (Atomic.exchange t.finalized true) then begin
    Pool.shutdown t.pool;
    List.iter
      (fun l ->
        (try Unix.close l.lfd with Unix.Unix_error _ -> ());
        match l.lpath with
        | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
        | None -> ())
      t.listeners;
    if t.temp_cache then remove_tree (Cache.dir t.cache)
  end

let stop t =
  request_stop t;
  await t
