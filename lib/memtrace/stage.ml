module Pool = Nvsc_team.Pool

type staging = {
  pool : Pool.t;
  bufs : Sink.Batch.t array; (* two; [cur] is the one being filled *)
  mutable cur : int;
  mutable fill : int;
  mutable inflight : unit Pool.ticket option;
  mutable failed : exn option;
}

type t = { consumer : Sink.consumer; staging : staging option }

let create ?pool consumer =
  let staging =
    match pool with
    | Some pool when Pool.jobs pool > 1 ->
      Some
        {
          pool;
          bufs =
            [|
              Sink.Batch.create Sink.default_capacity;
              Sink.Batch.create Sink.default_capacity;
            |];
          cur = 0;
          fill = 0;
          inflight = None;
          failed = None;
        }
    | Some _ | None -> None
  in
  { consumer; staging }

let check s = match s.failed with Some e -> raise e | None -> ()

(* Await task k-1.  A failure is kept, so every later hand-off and
   [finish] re-raise it instead of consuming more. *)
let await_inflight s =
  match s.inflight with
  | None -> ()
  | Some ticket -> (
    s.inflight <- None;
    match Pool.await ticket with
    | Pool.Done () -> ()
    | Pool.Failed e ->
      s.failed <- Some e;
      raise e
    | Pool.Cancelled ->
      let e = Invalid_argument "Stage: the pool was shut down" in
      s.failed <- Some e;
      raise e)

(* Submit the filled buffer as task k once task k-1 has finished; the
   other buffer (task k-1's) is then free for the producer. *)
let hand_off t s =
  let n = s.fill in
  if n > 0 then begin
    await_inflight s;
    let buf = s.bufs.(s.cur) in
    let consumer = t.consumer in
    s.inflight <-
      Some (Pool.hand_off s.pool (fun () -> consumer buf ~first:0 ~n));
    s.cur <- 1 - s.cur;
    s.fill <- 0
  end

let push t batch ~first ~n =
  Sink.Batch.check_slice batch ~first ~n;
  match t.staging with
  | None -> if n > 0 then t.consumer batch ~first ~n
  | Some s ->
    check s;
    let pos = ref first and left = ref n in
    while !left > 0 do
      let buf = s.bufs.(s.cur) in
      let k = min !left (Sink.Batch.capacity buf - s.fill) in
      Sink.Batch.blit batch ~src_pos:!pos buf ~dst_pos:s.fill ~n:k;
      s.fill <- s.fill + k;
      pos := !pos + k;
      left := !left - k;
      if s.fill = Sink.Batch.capacity buf then hand_off t s
    done

let finish t =
  match t.staging with
  | None -> ()
  | Some s ->
    check s;
    hand_off t s;
    await_inflight s

let abandon t =
  match t.staging with
  | None -> ()
  | Some s -> (
    s.fill <- 0;
    match s.inflight with
    | Some ticket ->
      s.inflight <- None;
      ignore (Pool.await ticket)
    | None -> ())

let drive t produce =
  match produce () with
  | v ->
    finish t;
    v
  | exception e ->
    abandon t;
    raise e
