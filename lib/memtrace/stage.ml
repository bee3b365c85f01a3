module Pool = Nvsc_team.Pool

let m_hand_overs = Nvsc_obs.Metrics.counter "stage.hand_overs"

type staging = {
  pool : Pool.t;
  (* task k-1 and the batch it reads, which is the producer's next *)
  mutable inflight : (unit Pool.ticket * Sink.Batch.t) option;
  mutable failed : exn option;
}

type t = { consumer : Sink.consumer; staging : staging option }

let create ?pool consumer =
  let staging =
    match pool with
    | Some pool when Pool.jobs pool > 1 ->
      Some { pool; inflight = None; failed = None }
    | Some _ | None -> None
  in
  { consumer; staging }

let check s = match s.failed with Some e -> raise e | None -> ()

(* Await task k-1 and return its batch.  A failure is kept, so every
   later hand-over and [finish] re-raise it instead of consuming more. *)
let await_inflight s =
  match s.inflight with
  | None -> None
  | Some (ticket, batch) -> (
    s.inflight <- None;
    match Pool.await ticket with
    | Pool.Done () -> Some batch
    | Pool.Failed e ->
      s.failed <- Some e;
      raise e
    | Pool.Cancelled ->
      let e = Invalid_argument "Stage: the pool was shut down" in
      s.failed <- Some e;
      raise e)

let hand_over t batch ~n =
  Sink.Batch.check_slice batch ~first:0 ~n;
  if n > 0 then Nvsc_obs.Metrics.Counter.incr m_hand_overs;
  match t.staging with
  | None ->
    if n > 0 then t.consumer batch ~first:0 ~n;
    batch
  | Some _ when n = 0 -> batch
  | Some s ->
    check s;
    (* task k-1 must finish before task k starts; its batch is the
       producer's next one, and the first hand-over makes the spare.  The
       producer fills the batch it gets back as it filled this one. *)
    let next =
      match await_inflight s with
      | Some free when Sink.Batch.capacity free = Sink.Batch.capacity batch ->
        free
      | Some _ | None -> Sink.Batch.create_like batch
    in
    let consumer = t.consumer in
    s.inflight <-
      Some (Pool.hand_off s.pool (fun () -> consumer batch ~first:0 ~n), batch);
    next

let finish t =
  match t.staging with
  | None -> ()
  | Some s ->
    check s;
    ignore (await_inflight s)

let abandon t =
  match t.staging with
  | None -> ()
  | Some s -> (
    match s.inflight with
    | Some (ticket, _) ->
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
