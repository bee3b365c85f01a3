(* Nvsc_obs: spans, metrics registry, exporters, scoped arming, and the
   Scavenger.Config builders. *)

module Obs = Nvsc_obs
module Span = Nvsc_obs.Span
module Metrics = Nvsc_obs.Metrics
module Json = Nvsc_util.Json

(* The recorder is global; every test starts from a clean, disarmed
   state and leaves it that way. *)
let recording f =
  Obs.reset ();
  Span.enable ();
  Fun.protect ~finally:Span.disable f

(* --- spans --------------------------------------------------------------- *)

let test_span_nesting () =
  recording @@ fun () ->
  Span.with_ "outer" (fun () ->
      Span.with_ "child1" (fun () -> ignore (Sys.opaque_identity 1));
      Span.with_ ~arg:"x" "child2" (fun () -> ignore (Sys.opaque_identity 2)));
  let events = Span.events () in
  Alcotest.(check (list string))
    "close order: children before parent"
    [ "child1"; "child2"; "outer" ]
    (List.map (fun (e : Span.event) -> e.name) events);
  List.iter
    (fun (e : Span.event) ->
      Alcotest.(check int) (e.name ^ " depth")
        (if e.name = "outer" then 0 else 1)
        e.depth;
      Alcotest.(check bool) (e.name ^ " dur >= self") true
        (e.dur_ns >= e.self_ns && e.self_ns >= 0))
    events;
  let dur name =
    (List.find (fun (e : Span.event) -> e.name = name) events).Span.dur_ns
  in
  let outer = List.find (fun (e : Span.event) -> e.name = "outer") events in
  Alcotest.(check int) "self = dur - children"
    (outer.dur_ns - dur "child1" - dur "child2")
    outer.self_ns;
  Alcotest.(check (option string)) "arg recorded" (Some "x")
    (List.find (fun (e : Span.event) -> e.name = "child2") events).Span.arg

let test_span_panic_safety () =
  recording @@ fun () ->
  (try
     Span.with_ "outer" (fun () ->
         Span.with_ "boom" (fun () -> failwith "panic"))
   with Failure _ -> ());
  Alcotest.(check (list string))
    "both spans recorded despite the raise" [ "boom"; "outer" ]
    (List.map (fun (e : Span.event) -> e.name) (Span.events ()));
  (* the stack repaired itself: the next span opens at depth 0 *)
  Span.with_ "after" (fun () -> ());
  let after =
    List.find (fun (e : Span.event) -> e.name = "after") (Span.events ())
  in
  Alcotest.(check int) "depth recovered" 0 after.Span.depth

let test_span_disabled () =
  Obs.reset ();
  Alcotest.(check bool) "disarmed by default" false (Span.enabled ());
  Alcotest.(check int) "value passes through" 42
    (Span.with_ "ignored" (fun () -> 42));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.events ()))

let test_scoped_handle () =
  Obs.reset ();
  Alcotest.(check bool) "disarmed before the scope" false (Span.enabled ());
  Obs.scoped (fun () ->
      Alcotest.(check bool) "scope arms" true (Span.enabled ());
      (* nested scoping is a no-op, and must not disarm on exit *)
      Obs.scoped (fun () -> ());
      Alcotest.(check bool) "still armed after nested scope" true
        (Span.enabled ()));
  Alcotest.(check bool) "disarmed after scope" false (Span.enabled ())

let test_spans_across_domains () =
  recording @@ fun () ->
  let ds =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            Span.with_ ~arg:(string_of_int i) "worker" (fun () -> i)))
  in
  let sum = List.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
  Alcotest.(check int) "joined results" 3 sum;
  let events = Span.events () in
  Alcotest.(check int) "one event per domain" 3 (List.length events);
  let tids =
    List.sort_uniq compare (List.map (fun (e : Span.event) -> e.tid) events)
  in
  Alcotest.(check int) "distinct buffers" 3 (List.length tids)

(* --- metrics ------------------------------------------------------------- *)

let test_metrics_basics () =
  Obs.reset ();
  let c = Metrics.counter "test.counter" in
  let g = Metrics.gauge "test.gauge" in
  let d = Metrics.dist "test.dist" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Metrics.Gauge.set g 2.5;
  List.iter (Metrics.Dist.observe d) [ 3; 1; 2 ];
  Alcotest.(check int) "counter" 5 (Metrics.Counter.get c);
  (match Metrics.get "test.dist" with
  | Some (Metrics.Dist s) ->
    Alcotest.(check int) "dist count" 3 s.count;
    Alcotest.(check int) "dist sum" 6 s.sum;
    Alcotest.(check int) "dist min" 1 s.min;
    Alcotest.(check int) "dist max" 3 s.max
  | _ -> Alcotest.fail "dist not registered");
  (* same name, same kind: the one metric *)
  Metrics.Counter.incr (Metrics.counter "test.counter");
  Alcotest.(check int) "idempotent registration" 6 (Metrics.Counter.get c);
  (* same name, different kind: refused *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Metrics.gauge: \"test.counter\" is already registered as a counter")
    (fun () -> ignore (Metrics.gauge "test.counter"));
  (* snapshot is name-sorted and reset keeps registrations *)
  let names = List.map fst (Metrics.snapshot ()) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.Counter.get c);
  Alcotest.(check bool) "reset keeps keys" true
    (List.mem "test.counter" (List.map fst (Metrics.snapshot ())))

(* Deterministic metrics must not depend on how many domains split the
   work.  Wall-clock metrics are exempt by the [_ns] suffix convention;
   [sweep.pool.jobs] reports the knob itself, so it is exempt too. *)
let deterministic_snapshot () =
  List.filter
    (fun (name, _) ->
      (not (Filename.check_suffix name "_ns")) && name <> "sweep.pool.jobs")
    (Metrics.snapshot ())

let sweep_once ?(kinds = [ Nvsc_sweep.Cell.Objects; Nvsc_sweep.Cell.Perf ])
    ~jobs () =
  Obs.reset ();
  Span.enable ();
  Fun.protect ~finally:Span.disable @@ fun () ->
  let matrix =
    match
      Nvsc_sweep.Matrix.make ~apps:[ "gtc" ] ~kinds ~scale:0.1 ~iterations:1 ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  ignore (Nvsc_sweep.Engine.run ~jobs matrix);
  let span_histogram =
    List.sort compare
      (List.map
         (fun (e : Span.event) -> (e.Span.name, e.Span.arg))
         (Span.events ()))
  in
  (deterministic_snapshot (), span_histogram)

let test_determinism_across_jobs () =
  let m1, s1 = sweep_once ~jobs:1 () in
  let m4, s4 = sweep_once ~jobs:4 () in
  let m8, s8 = sweep_once ~jobs:8 () in
  (* a lone power group spreads its technology comparison over the width:
     the pool's task counters must not see the difference *)
  let power = [ Nvsc_sweep.Cell.Power ] in
  Alcotest.(check bool) "metrics: lone power group, jobs 1 = jobs 4" true
    (fst (sweep_once ~kinds:power ~jobs:1 ())
    = fst (sweep_once ~kinds:power ~jobs:4 ()));
  Alcotest.(check bool) "metrics: jobs 1 = jobs 4" true (m1 = m4);
  Alcotest.(check bool) "metrics: jobs 1 = jobs 8" true (m1 = m8);
  Alcotest.(check bool) "span multiset: jobs 1 = jobs 4" true (s1 = s4);
  Alcotest.(check bool) "span multiset: jobs 1 = jobs 8" true (s1 = s8);
  Alcotest.(check bool) "sweep counters flowed through the registry" true
    (List.mem_assoc "sweep.cells" m1 && List.assoc "sweep.cells" m1
     = Metrics.Counter 2)

(* --- Chrome-trace exporter ----------------------------------------------- *)

let test_chrome_trace_roundtrip () =
  recording @@ fun () ->
  Metrics.Counter.add (Metrics.counter "test.roundtrip") 7;
  Span.with_ "outer" (fun () -> Span.with_ ~arg:"gtc" "inner" (fun () -> ()));
  let json = Json.of_string (Json.to_string (Obs.Chrome_trace.to_json ())) in
  let events = Json.to_list (Json.member "traceEvents" json) in
  Alcotest.(check int) "one trace event per span" 2 (List.length events);
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X"
        (Json.to_str (Json.member "ph" e));
      Alcotest.(check bool) "duration is non-negative" true
        (Json.to_float (Json.member "dur" e) >= 0.);
      Alcotest.(check int) "single process" 0
        (Json.to_int (Json.member "pid" e));
      Alcotest.(check int) "dense tid" 0 (Json.to_int (Json.member "tid" e)))
    events;
  let names =
    List.sort compare
      (List.map (fun e -> Json.to_str (Json.member "name" e)) events)
  in
  Alcotest.(check (list string)) "names survive" [ "inner"; "outer" ] names;
  let metrics = Json.member "nvscMetrics" json in
  Alcotest.(check int) "metrics embedded" 7
    (Json.to_int (Json.member "test.roundtrip" metrics))

(* --- the Config redesign -------------------------------------------------- *)

let app = Option.get (Nvsc_apps.Apps.find "gtc")

let test_config_builders () =
  let module C = Nvsc_core.Scavenger.Config in
  let cfg =
    C.(
      default |> with_scale 0.5 |> with_iterations 3 |> with_trace true
      |> with_sampling ~period:100 ~sample_length:10
      |> with_batch_capacity 64
      |> with_sanitize ~check_init:true true)
  in
  Alcotest.(check (float 0.)) "scale" 0.5 cfg.C.scale;
  Alcotest.(check int) "iterations" 3 cfg.C.iterations;
  Alcotest.(check bool) "trace" true cfg.C.with_trace;
  Alcotest.(check (option (pair int int))) "sampling" (Some (100, 10))
    cfg.C.sampling;
  Alcotest.(check (option int)) "batch capacity" (Some 64) cfg.C.batch_capacity;
  Alcotest.(check bool) "sanitize" true cfg.C.sanitize;
  Alcotest.(check bool) "check_init" true cfg.C.check_init;
  (* updates are functional: default is untouched *)
  Alcotest.(check (float 0.)) "default intact" 1.0 C.default.C.scale

(* [Config.with_shards] is an inert shim: it still rejects widths below
   one, and a run configured with any other width is the serial run. *)
let test_sharded_run_equivalence () =
  let module S = Nvsc_core.Scavenger in
  let base =
    S.Config.(default |> with_scale 0.25 |> with_iterations 2
              |> with_trace true)
  in
  Alcotest.check_raises "width 0"
    (Invalid_argument "Config.with_shards: shards must be >= 1") (fun () ->
      ignore (S.Config.with_shards 0 base));
  let serial = S.run base app in
  let sharded = S.run S.Config.(base |> with_shards 4) app in
  Alcotest.(check int) "footprint" serial.S.footprint_bytes
    sharded.S.footprint_bytes;
  Alcotest.(check int) "main refs" serial.S.total_main_refs
    sharded.S.total_main_refs;
  Alcotest.(check bool) "object metrics" true
    (serial.S.metrics = sharded.S.metrics);
  Alcotest.(check (float 0.)) "l1 miss rate" serial.S.l1_miss_rate
    sharded.S.l1_miss_rate;
  Alcotest.(check (float 0.)) "l2 miss rate" serial.S.l2_miss_rate
    sharded.S.l2_miss_rate;
  let len r =
    match r.S.mem_trace with
    | Some t -> Nvsc_memtrace.Trace_log.length t
    | None -> -1
  in
  Alcotest.(check int) "trace length" (len serial) (len sharded)

(* A scope arms the recorder for exactly one run. *)
let test_config_scoped_profiling () =
  Obs.reset ();
  let module S = Nvsc_core.Scavenger in
  Obs.scoped (fun () ->
      ignore
        (S.run S.Config.(default |> with_scale 0.1 |> with_iterations 1) app));
  Alcotest.(check bool) "disarmed after the run" false (Span.enabled ());
  let names =
    List.sort_uniq compare
      (List.map (fun (e : Span.event) -> e.Span.name) (Span.events ()))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " recorded") true (List.mem n names))
    [ "scavenger.run"; "scavenger.setup"; "scavenger.app";
      "scavenger.analysis" ];
  match Metrics.get "scavenger.runs" with
  | Some (Metrics.Counter n) ->
    Alcotest.(check bool) "runs counted" true (n >= 1)
  | _ -> Alcotest.fail "scavenger.runs not registered"

let suite =
  [
    Alcotest.test_case "span nesting, order, self time" `Quick
      test_span_nesting;
    Alcotest.test_case "span panic safety" `Quick test_span_panic_safety;
    Alcotest.test_case "disarmed spans record nothing" `Quick
      test_span_disabled;
    Alcotest.test_case "scoped handle" `Quick test_scoped_handle;
    Alcotest.test_case "per-domain buffers" `Quick test_spans_across_domains;
    Alcotest.test_case "metrics registry" `Quick test_metrics_basics;
    Alcotest.test_case "snapshot deterministic across jobs 1/4/8" `Slow
      test_determinism_across_jobs;
    Alcotest.test_case "chrome trace roundtrips through Json" `Quick
      test_chrome_trace_roundtrip;
    Alcotest.test_case "Config builders" `Quick test_config_builders;
    Alcotest.test_case "sharded run equals serial run" `Slow
      test_sharded_run_equivalence;
    Alcotest.test_case "scoped arms one run" `Quick
      test_config_scoped_profiling;
  ]
