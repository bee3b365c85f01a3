let default_jobs () = Domain.recommended_domain_count ()

let m_jobs = Nvsc_obs.Metrics.gauge "sweep.pool.jobs"
let m_queue_wait = Nvsc_obs.Metrics.dist "sweep.pool.queue_wait_ns"
let m_depth = Nvsc_obs.Metrics.gauge "sweep.pool.queue_depth"
let m_submitted = Nvsc_obs.Metrics.counter "sweep.pool.submitted"
let m_cancelled = Nvsc_obs.Metrics.counter "sweep.pool.cancelled"

(* Worker domains block on a condition variable between tasks.  Stdlib
   [Mutex]/[Condition] are domain-safe, so submitters (threads on any
   domain) and workers share one queue.  A resident pool's submitters
   only wait; in a caller's pool ([with_pool]) the awaiting caller runs
   queued tasks itself, as the last of its [jobs] domains. *)

type task = { run : unit -> unit; cancel : unit -> unit }

type t = {
  queue : task Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  n_jobs : int;
  caller_runs : bool;
}

type 'a outcome = Done of 'a | Failed of exn | Cancelled

type 'a ticket = {
  pool : t;
  t_mu : Mutex.t;
  t_done : Condition.t;
  mutable state : 'a outcome option;
}

(* The next queued task; with [wait], block until there is one.  Once
   closed, nothing more starts — [shutdown] resolves what is left as
   [Cancelled] after the join. *)
let take pool ~wait =
  Mutex.lock pool.mu;
  while wait && Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.mu
  done;
  let task =
    if pool.closed then None
    else begin
      let task = Queue.take_opt pool.queue in
      Nvsc_obs.Metrics.Gauge.set m_depth
        (float_of_int (Queue.length pool.queue));
      task
    end
  in
  Mutex.unlock pool.mu;
  task

let rec worker pool () =
  match take pool ~wait:true with
  | Some task ->
    task.run ();
    worker pool ()
  | None -> ()

let spawn ~jobs ~caller_runs =
  let pool =
    {
      queue = Queue.create ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [];
      n_jobs = jobs;
      caller_runs;
    }
  in
  let workers = if caller_runs then jobs - 1 else jobs in
  (* the width of the last pool that spawned domains: a serial pool nested
     in a wide one's task does not overwrite the knob *)
  if workers > 0 then Nvsc_obs.Metrics.Gauge.set m_jobs (float_of_int jobs);
  pool.workers <- List.init workers (fun _ -> Domain.spawn (worker pool));
  pool

let create ?(jobs = default_jobs ()) () =
  spawn ~jobs:(max 1 jobs) ~caller_runs:false

let jobs t = t.n_jobs

let submit ?(cancelled = fun () -> false) pool f =
  let ticket =
    { pool; t_mu = Mutex.create (); t_done = Condition.create (); state = None }
  in
  let finish outcome =
    Mutex.lock ticket.t_mu;
    ticket.state <- Some outcome;
    Condition.broadcast ticket.t_done;
    Mutex.unlock ticket.t_mu
  in
  let cancel () =
    Nvsc_obs.Metrics.Counter.incr m_cancelled;
    finish Cancelled
  in
  (* queue wait is only sampled when the recorder is armed, so the
     disarmed path never reads the clock *)
  let queued_at =
    if Nvsc_obs.Span.enabled () then Nvsc_obs.Clock.now_ns () else 0
  in
  let run () =
    if queued_at > 0 then
      Nvsc_obs.Metrics.Dist.observe m_queue_wait
        (Nvsc_obs.Clock.now_ns () - queued_at);
    if cancelled () then cancel ()
    else finish (match f () with v -> Done v | exception e -> Failed e)
  in
  Mutex.lock pool.mu;
  if pool.closed then begin
    Mutex.unlock pool.mu;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push { run; cancel } pool.queue;
  Nvsc_obs.Metrics.Counter.incr m_submitted;
  Nvsc_obs.Metrics.Gauge.set m_depth (float_of_int (Queue.length pool.queue));
  Condition.signal pool.nonempty;
  Mutex.unlock pool.mu;
  ticket

let rec await ticket =
  Mutex.lock ticket.t_mu;
  let state = ticket.state in
  Mutex.unlock ticket.t_mu;
  match state with
  | Some outcome -> outcome
  | None -> (
    let pool = ticket.pool in
    match if pool.caller_runs then take pool ~wait:false else None with
    | Some task ->
      task.run ();
      await ticket
    | None ->
      Mutex.lock ticket.t_mu;
      while ticket.state = None do
        Condition.wait ticket.t_done ticket.t_mu
      done;
      Mutex.unlock ticket.t_mu;
      Option.get ticket.state)

let shutdown pool =
  Mutex.lock pool.mu;
  pool.closed <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mu;
  List.iter Domain.join pool.workers;
  pool.workers <- [];
  (* Anything still queued was never started: resolve it as cancelled so
     awaiting clients unblock. *)
  Queue.iter (fun task -> task.cancel ()) pool.queue;
  Queue.clear pool.queue

let with_pool ~jobs f =
  let pool = spawn ~jobs:(max 1 jobs) ~caller_runs:true in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map ~jobs f items =
  with_pool ~jobs:(min jobs (Array.length items)) @@ fun pool ->
  Array.map (fun x -> submit pool (fun () -> f x)) items
  |> Array.map (fun ticket ->
         match await ticket with
         | Done v -> v
         | Failed e -> raise e
         | Cancelled -> assert false)
