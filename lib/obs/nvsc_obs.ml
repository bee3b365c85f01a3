(* Nvsc_obs: pipeline-wide observability — nestable timed spans, a typed
   metrics registry, and exporters (self-time table, Chrome trace).

   The layer is zero-dependency (stdlib + Unix clock) and always compiled
   in: a disarmed span costs one branch on an [Atomic.t], so every
   pipeline library ships instrumented and [--profile] merely arms the
   recorder.  See DESIGN.md "Observability". *)

module Clock = Clock
module Metrics = Metrics
module Span = Span
module Chrome_trace = Chrome_trace
module Profile = Profile

let enabled = Span.enabled

let reset () =
  Span.reset ();
  Metrics.reset ()

let scoped f =
  if not (Span.enabled ()) then begin
    Span.enable ();
    Fun.protect ~finally:Span.disable f
  end
  else f ()

(* --- CLI driver --------------------------------------------------------- *)

let with_profiling ?trace_out ?(summary = Format.err_formatter)
    ~enabled:requested f =
  if not requested then f ()
  else begin
    reset ();
    Span.enable ();
    Fun.protect ~finally:Span.disable @@ fun () ->
    let v = f () in
    (match trace_out with
    | Some path -> Chrome_trace.write path
    | None -> ());
    Profile.pp_summary summary (Profile.summary ());
    Format.fprintf summary "metrics:@.";
    Metrics.pp_snapshot summary (Metrics.snapshot ());
    Format.pp_print_flush summary ();
    v
  end
