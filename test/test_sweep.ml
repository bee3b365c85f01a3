(* The sweep engine: JSON codec fidelity, matrix expansion, the domain
   pool's ordering contract, cache-key sensitivity, the on-disk cache's
   hit/miss/evict accounting, the determinism contracts — reports
   byte-identical across --jobs and across cold/warm cache runs — and the
   paper's cross-config claims as a property of random configurations. *)

module Json = Nvsc_util.Json
module Cell = Nvsc_sweep.Cell
module Matrix = Nvsc_sweep.Matrix
module Pool = Nvsc_team.Pool
module Cache = Nvsc_sweep.Cache
module Engine = Nvsc_sweep.Engine
module E = Nvsc_core.Experiment
module Technology = Nvsc_nvram.Technology

let tiny_config = { E.scale = 0.1; iterations = 2; perf_scale = 0.1 }

let spec ?(app = "cam") ?(kind = Cell.Objects) ?(scale = 0.1)
    ?(iterations = 2) ?tech ?trace_digest () =
  { Cell.app; kind; scale; iterations; tech; trace_digest }

let with_fmt f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* unique per-call temp dirs: a stale dir from an earlier run must not
   look like a warm cache, and the repo cwd must stay clean when the test
   binary is run outside dune's sandbox *)
let fresh_dir () =
  let base = Filename.temp_file "nvsc-sweep-cache" "" in
  Sys.remove base;
  base ^ ".d"

(* --- JSON --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let open Json in
  let j =
    Obj
      [
        ("s", Str "a\"b\\c\nd\te\r \x01 ü");
        ("i", Int (-42));
        ("f", Float 0.1);
        ("big", Float 1.234567890123e17);
        ("neg", Float (-0.0));
        ("whole", Float 3.0);
        ("inf", float infinity);
        ("ninf", float neg_infinity);
        ("nan", float nan);
        ("n", Null);
        ("b", Bool true);
        ("l", List [ Int 1; Str "x"; List []; Obj [] ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (of_string (to_string j) = j);
  Alcotest.(check bool)
    "nonfinite floats survive as strings" true
    (Float.is_nan (to_float (member "nan" (of_string (to_string j))))
    && to_float (member "inf" (of_string (to_string j))) = infinity);
  Alcotest.(check bool)
    "garbage rejected" true
    (try
       ignore (of_string "{\"a\": 1} trailing");
       false
     with Json.Parse_error _ -> true)

(* --- spec and payload codecs -------------------------------------------- *)

let test_spec_codec () =
  let specs =
    [
      spec ();
      spec ~app:"gtc" ~kind:Cell.Perf ~scale:0.5 ~iterations:7 ();
      spec ~kind:Cell.Place ~tech:Technology.PCRAM ();
      spec ~trace_digest:(String.make 32 'a') ();
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "spec roundtrips" true
        (Cell.spec_of_json (Cell.spec_to_json s) = s))
    specs

let test_payload_codecs_render_identically () =
  List.iter
    (fun kind ->
      let s =
        match kind with
        | Cell.Place -> spec ~kind ~tech:Technology.STTRAM ()
        | _ -> spec ~kind ()
      in
      let payload = Cell.execute s in
      let decoded =
        Cell.payload_of_json
          (Json.of_string (Json.to_string (Cell.payload_to_json payload)))
      in
      Alcotest.(check string)
        (Cell.kind_to_string kind ^ " decoded payload renders identically")
        (with_fmt (fun fmt -> Cell.render fmt s payload))
        (with_fmt (fun fmt -> Cell.render fmt s decoded)))
    (Cell.all_kinds @ [ Cell.Study ])

(* A perf payload carries both write models' rows; every float, the
   posted ones included, survives the cache's JSON text bit for bit. *)
let test_perf_payload_roundtrip () =
  let rows_of = function
    | Cell.Perf_result rows -> rows
    | _ -> Alcotest.fail "perf payload expected"
  in
  let payload = Cell.execute (spec ~kind:Cell.Perf ()) in
  let decoded =
    Cell.payload_of_json
      (Json.of_string (Json.to_string (Cell.payload_to_json payload)))
  in
  let fields (r : Cell.perf_row) =
    ( r.perf_tech_name,
      List.map Int64.bits_of_float
        [ r.latency_ns; r.runtime_ns; r.normalized_runtime;
          r.posted_runtime_ns; r.posted_normalized_runtime ] )
  in
  Alcotest.(check (list (pair string (list int64))))
    "perf rows bit-exact"
    (List.map fields (rows_of payload))
    (List.map fields (rows_of decoded));
  let ddr3 =
    List.find
      (fun (r : Cell.perf_row) -> r.perf_tech_name = "DDR3")
      (rows_of decoded)
  in
  Alcotest.(check (float 0.)) "posted DDR3 = 1" 1.
    ddr3.posted_normalized_runtime

(* A cell's cache key changes with the schema version, so an entry written
   before the perf rows carried posted fields (v3) is a miss; such a perf
   payload would not decode anyway.  A v4 power entry, which still carried
   pipeline counters, is a miss too. *)
let test_code_version_keys_digest () =
  let s = spec ~kind:Cell.Perf () in
  let keyed version =
    Digest.to_hex
      (Digest.string (version ^ "|" ^ Json.to_string (Cell.spec_to_json s)))
  in
  Alcotest.(check string) "schema version" "nvsc-sweep-v5" Cell.code_version;
  Alcotest.(check string) "digest keys on the version"
    (keyed Cell.code_version) (Cell.digest s);
  Alcotest.(check bool) "a v3 entry misses" true
    (Cell.digest s <> keyed "nvsc-sweep-v3");
  Alcotest.(check bool) "a v4 entry misses" true
    (Cell.digest s <> keyed "nvsc-sweep-v4");
  let v3_payload =
    Json.Obj
      [
        ("kind", Json.Str "perf");
        ( "data",
          Json.List
            [
              Json.Obj
                [
                  ("tech", Json.Str "DDR3");
                  ("latency_ns", Json.Float 10.);
                  ("runtime_ns", Json.Float 1000.);
                  ("normalized_runtime", Json.Float 1.);
                ];
            ] );
      ]
  in
  Alcotest.(check bool) "a v3 perf payload does not decode" true
    (try
       ignore (Cell.payload_of_json v3_payload);
       false
     with Json.Parse_error _ -> true)

(* --- matrix ------------------------------------------------------------- *)

let test_matrix_expansion () =
  let m =
    match
      Matrix.make ~apps:[ "cam"; "gtc" ]
        ~kinds:[ Cell.Objects; Cell.Place ]
        ~techs:[ "sttram"; "pcram" ] ~scale:0.2 ~iterations:3 ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let cells = Matrix.cells m in
  (* per app: one objects cell + one place cell per tech *)
  Alcotest.(check int) "cell count" 6 (List.length cells);
  Alcotest.(check (list string))
    "app-major order"
    [ "cam"; "cam"; "cam"; "gtc"; "gtc"; "gtc" ]
    (List.map (fun (c : Cell.spec) -> c.app) cells);
  Alcotest.(check int) "place cells carry a tech" 4
    (List.length
       (List.filter (fun (c : Cell.spec) -> c.tech <> None) cells))

let test_matrix_validation () =
  let bad = [
    Matrix.make ~apps:[ "hpl" ] ();
    Matrix.make ~apps:[] ();
    Matrix.make ~techs:[ "core-rope" ] ();
    Matrix.make ~scale:(-1.) ();
    Matrix.make ~iterations:0 ();
  ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "rejected" true (Result.is_error r))
    bad

let test_overrides () =
  let ov s =
    match Matrix.parse_override s with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let m =
    match
      Matrix.make ~apps:[ "cam"; "gtc" ]
        ~kinds:[ Cell.Objects; Cell.Perf ]
        ~scale:1.0 ~iterations:10
        ~overrides:
          [
            ov "kind=perf,scale=0.5";
            ov "app=gtc,iterations=3";
            ov "app=gtc,kind=objects,iterations=4";
            ov "app=cam,scale=2.0";
          ]
        ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let find app kind =
    List.find
      (fun (c : Cell.spec) -> c.app = app && c.kind = kind)
      (Matrix.cells m)
  in
  Alcotest.(check (float 0.)) "perf scale overridden" 0.5
    (find "gtc" Cell.Perf).scale;
  Alcotest.(check int) "later override wins per field" 4
    (find "gtc" Cell.Objects).iterations;
  Alcotest.(check int) "perf cell keeps one iteration" 1
    (find "gtc" Cell.Perf).iterations;
  Alcotest.(check (float 0.)) "app-selective override" 2.0
    (find "cam" Cell.Objects).scale;
  Alcotest.(check (float 0.)) "untouched cell keeps defaults" 1.0
    (find "gtc" Cell.Objects).scale;
  Alcotest.(check bool) "bad key rejected" true
    (Result.is_error (Matrix.parse_override "speed=2"));
  Alcotest.(check bool) "bad value rejected" true
    (Result.is_error (Matrix.parse_override "scale=fast"))

(* --- pool --------------------------------------------------------------- *)

let test_pool_order () =
  let items = Array.init 100 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "order preserved at jobs=%d" jobs)
        (Array.map (fun i -> i * i) items)
        (Pool.map ~jobs (fun i -> i * i) items))
    [ 1; 2; 8; 200 ]

let test_pool_empty_and_exn () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 Fun.id [||]);
  let first_failure =
    try
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i mod 3 = 1 then failwith (string_of_int i) else i)
           (Array.init 10 Fun.id));
      "no exception"
    with Failure msg -> msg
  in
  (* items 1, 4, 7 fail; input order decides which exception surfaces *)
  Alcotest.(check string) "first failing index wins" "1" first_failure

(* --- digests ------------------------------------------------------------ *)

let test_digest_stability () =
  let a = spec () and b = spec () in
  Alcotest.(check string) "equal specs, equal digests" (Cell.digest a)
    (Cell.digest b);
  Alcotest.(check int) "digest is 32 hex chars" 32
    (String.length (Cell.digest a))

let gen_spec =
  QCheck.Gen.(
    let* app = oneofl [ "nek5000"; "cam"; "gtc"; "s3d" ] in
    let* kind = oneofl Cell.all_kinds in
    let* scale = float_range 0.05 4.0 in
    let* iterations = int_range 1 30 in
    let* tech =
      oneofl
        [ None; Some Technology.PCRAM; Some Technology.STTRAM;
          Some Technology.MRAM ]
    in
    let* trace_digest = oneofl [ None; Some (String.make 32 'b') ] in
    return { Cell.app; kind; scale; iterations; tech; trace_digest })

let mutate_field i (s : Cell.spec) =
  match i mod 6 with
  | 0 -> { s with app = (if s.app = "cam" then "gtc" else "cam") }
  | 1 ->
    {
      s with
      kind = (if s.kind = Cell.Objects then Cell.Power else Cell.Objects);
    }
  | 2 -> { s with scale = s.scale +. 0.125 }
  | 3 -> { s with iterations = s.iterations + 1 }
  | 4 ->
    {
      s with
      tech =
        (match s.tech with
        | Some Technology.PCRAM -> Some Technology.MRAM
        | _ -> Some Technology.PCRAM);
    }
  | _ ->
    {
      s with
      trace_digest =
        (match s.trace_digest with
        | None -> Some (String.make 32 'c')
        | Some _ -> None);
    }

let digest_sensitive =
  QCheck.Test.make ~name:"digest changes when any spec field changes"
    ~count:200
    QCheck.(pair (make gen_spec) small_nat)
    (fun (s, i) ->
      let s' = mutate_field i s in
      s' <> s && Cell.digest s' <> Cell.digest s)

(* --- cache -------------------------------------------------------------- *)

let small_payload () = Cell.execute (spec ())

let test_cache_cold_warm () =
  let c = Cache.create ~dir:(fresh_dir ()) () in
  let s = spec () in
  Alcotest.(check bool) "cold lookup misses" true (Cache.find c s = None);
  let payload = small_payload () in
  Cache.store c s payload;
  (match Cache.find c s with
  | None -> Alcotest.fail "warm lookup missed"
  | Some p ->
    Alcotest.(check string) "stored payload renders identically"
      (with_fmt (fun fmt -> Cell.render fmt s payload))
      (with_fmt (fun fmt -> Cell.render fmt s p)));
  let st = Cache.stats c in
  Alcotest.(check int) "one hit" 1 st.Cache.hits;
  Alcotest.(check int) "one miss" 1 st.Cache.misses;
  Alcotest.(check int) "no evictions" 0 st.Cache.evictions

let test_cache_corruption () =
  let c = Cache.create ~dir:(fresh_dir ()) () in
  let s = spec () in
  Cache.store c s (small_payload ());
  let path = Filename.concat (Cache.dir c) (Cell.digest s ^ ".json") in
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  Alcotest.(check bool) "corrupt entry misses" true (Cache.find c s = None);
  Alcotest.(check bool) "corrupt entry deleted" false (Sys.file_exists path);
  Alcotest.(check int) "counted as miss" 1 (Cache.stats c).Cache.misses

let test_cache_eviction () =
  let c = Cache.create ~dir:(fresh_dir ()) ~max_entries:2 () in
  let payload = small_payload () in
  let specs =
    [ spec (); spec ~iterations:3 (); spec ~iterations:4 () ]
  in
  List.iter (fun s -> Cache.store c s payload) specs;
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  Alcotest.(check bool) "oldest entry evicted" true
    (Cache.find c (List.nth specs 0) = None);
  Alcotest.(check bool) "newest entries kept" true
    (Cache.find c (List.nth specs 1) <> None
    && Cache.find c (List.nth specs 2) <> None)

(* --- engine ------------------------------------------------------------- *)

let small_matrix () =
  match
    Matrix.make ~apps:[ "cam" ] ~scale:0.1 ~iterations:2 ()
  with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let render_outcomes outcomes =
  with_fmt (fun fmt -> Engine.pp_outcomes fmt outcomes)

let test_engine_jobs_deterministic () =
  let m = small_matrix () in
  let o1, s1 = Engine.run ~jobs:1 m in
  let o8, s8 = Engine.run ~jobs:8 m in
  Alcotest.(check int) "all cells ran" 4 s1.Engine.cells;
  (* the stats report the domains that ran: cam's four cells are two
     groups (objects+power+place, perf), at most one domain each *)
  Alcotest.(check int) "jobs = one domain per group" 2 s8.Engine.jobs;
  Alcotest.(check string) "byte-identical report at jobs 1 vs 8"
    (render_outcomes o1) (render_outcomes o8);
  (* a lone group spreads only a power cell's technology comparison *)
  let lone kind =
    match
      Matrix.make ~apps:[ "cam" ] ~kinds:[ kind ] ~scale:0.1 ~iterations:2 ()
    with
    | Ok m -> (snd (Engine.run ~jobs:8 m)).Engine.jobs
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "lone power cell: one domain per technology"
    (List.length Nvsc_nvram.Technology.paper_set)
    (lone Cell.Power);
  Alcotest.(check int) "lone perf cell: one domain" 1 (lone Cell.Perf)

let test_engine_cache_cold_then_warm () =
  let m = small_matrix () in
  let dir = fresh_dir () in
  let o1, s1 = Engine.run ~jobs:2 ~cache:(Cache.create ~dir ()) m in
  Alcotest.(check int) "cold run misses everything" 4 s1.Engine.misses;
  Alcotest.(check int) "cold run hits nothing" 0 s1.Engine.hits;
  let o2, s2 = Engine.run ~jobs:2 ~cache:(Cache.create ~dir ()) m in
  Alcotest.(check int) "warm run hits everything" 4 s2.Engine.hits;
  Alcotest.(check int) "warm run re-executes nothing" 0 s2.Engine.misses;
  Alcotest.(check bool) "warm outcomes flagged cached" true
    (Array.for_all (fun o -> o.Engine.cached) o2);
  Alcotest.(check string) "byte-identical report cold vs warm"
    (render_outcomes o1) (render_outcomes o2);
  (* a live perf cell replays one iteration whatever the matrix says, so
     a sweep at another iteration count and [nvscav perf] at the same
     scale share its entry; a trace-fed one keeps the trace's count *)
  let perf_matrix ?overrides iterations =
    match
      Matrix.make ~apps:[ "cam" ] ~kinds:[ Cell.Perf ] ~scale:0.1 ~iterations
        ?overrides ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let o3, s3 = Engine.run ~jobs:1 ~cache:(Cache.create ~dir ()) (perf_matrix 3) in
  Alcotest.(check (pair int int)) "perf cell at 3 iterations hits" (1, 0)
    (s3.Engine.hits, s3.Engine.misses);
  let overrides = [ Result.get_ok (Matrix.parse_override "iterations=3") ] in
  let _, s4 =
    Engine.run ~jobs:1 ~cache:(Cache.create ~dir ()) (perf_matrix ~overrides 2)
  in
  Alcotest.(check (pair int int)) "perf cell under an iterations override hits"
    (1, 0)
    (s4.Engine.hits, s4.Engine.misses);
  let perf_plan =
    match Nvsc_serve.Plan.perf ~app:"cam" ~scale:0.1 ~asymmetric:false with
    | Ok p -> p
    | Error e -> Alcotest.fail e.Nvsc_serve.Protocol.message
  in
  Alcotest.(check string) "nvscav perf keys on the sweep's perf cell"
    (Cell.digest o3.(0).Engine.spec)
    (Cell.digest perf_plan.Nvsc_serve.Plan.specs.(0));
  let pinned = Cell.pin_trace ~digest:(String.make 32 'a') ~iterations:5 in
  Alcotest.(check (pair int int)) "trace-fed perf takes the trace's count"
    (5, 2)
    ( (pinned (spec ~kind:Cell.Perf ~iterations:1 ())).iterations,
      (pinned (spec ~kind:Cell.Objects ())).iterations )

(* The executor hands each outcome on in report order, whatever the
   width and however the groups complete, and only once the computed
   payload is stored: a cache hit ahead of three miss groups (perf, a
   power cell whose objects sibling hit, and another application). *)
let test_engine_on_outcome_order () =
  let specs =
    [|
      spec ();
      spec ~kind:Cell.Perf ();
      spec ~kind:Cell.Power ();
      spec ~app:"gtc" ();
    |]
  in
  let reports =
    List.map
      (fun jobs ->
        let cache = Cache.create ~dir:(fresh_dir ()) () in
        Cache.store cache specs.(0) (Cell.execute specs.(0));
        let seen = ref [] in
        let on_outcome i (o : Engine.outcome) =
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: cell %d stored before it is handed on"
               jobs i)
            true
            (Sys.file_exists
               (Filename.concat (Cache.dir cache)
                  (Cell.digest o.Engine.spec ^ ".json")));
          seen := i :: !seen
        in
        let outcomes, stats = Engine.run_specs ~jobs ~cache ~on_outcome specs in
        Alcotest.(check (list int))
          (Printf.sprintf "jobs=%d: handed on in report order" jobs)
          [ 0; 1; 2; 3 ] (List.rev !seen);
        Alcotest.(check (list bool))
          (Printf.sprintf "jobs=%d: only the first cell hit" jobs)
          [ true; false; false; false ]
          (Array.to_list (Array.map (fun o -> o.Engine.cached) outcomes));
        Alcotest.(check (pair int int))
          (Printf.sprintf "jobs=%d: this call's lookups" jobs)
          (1, 3)
          (stats.Engine.hits, stats.Engine.misses);
        render_outcomes outcomes)
      [ 1; 2; 4 ]
  in
  List.iter
    (Alcotest.(check string) "byte-identical report at every width"
       (List.hd reports))
    reports

let runs = Nvsc_obs.Metrics.counter "scavenger.runs"

(* The experiments matrix with its study cells: the tables and the
   extension report render byte-identically cold at two domains, warm
   from the cache (nothing re-executed) and uncached at one domain. *)
let test_experiments_warm_equals_cold () =
  let config = tiny_config in
  let matrix =
    Engine.with_studies ~scale:0.1 ~iterations:2
      (Engine.experiments_matrix ~config)
  in
  let dir = fresh_dir () in
  let engine_run ?cache ~jobs () =
    let outcomes, stats = Engine.run ~jobs ?cache matrix in
    let data = Engine.experiments_data ~config outcomes in
    ( with_fmt (fun fmt ->
          E.run_all_of_data fmt data;
          Nvsc_core.Extensions.run_all fmt
            ~texts:(Engine.experiments_texts outcomes)
            data),
      stats )
  in
  let cold, cold_stats =
    engine_run ~cache:(Cache.create ~dir ()) ~jobs:2 ()
  in
  Alcotest.(check int) "one study cell per application" 16
    cold_stats.Engine.cells;
  (* the warm pass renders entirely from decoded cache payloads *)
  let before = Nvsc_obs.Metrics.Counter.get runs in
  let warm, warm_stats = engine_run ~cache:(Cache.create ~dir ()) ~jobs:2 () in
  Alcotest.(check (pair int int)) "warm run hits every cell" (16, 0)
    (warm_stats.Engine.hits, warm_stats.Engine.misses);
  Alcotest.(check int) "warm run runs no application" 0
    (Nvsc_obs.Metrics.Counter.get runs - before);
  Alcotest.(check string) "warm-cache rerun is byte-identical" cold warm;
  Alcotest.(check string) "jobs 1 is byte-identical" cold
    (fst (engine_run ~jobs:1 ()))

(* --- the paper's cross-config claims as a property ------------------------ *)

(* Every Any_config claim of the registry (orderings and existence: the
   footprint order, gtc the lowest stack share and the write-heavy
   outlier, read-only data everywhere, Table VI's PCRAM <= STTRAM <= MRAM
   < DDR3, Figure 12's runtime growing with latency, ...) on a random small
   configuration.  Replaying one power cell's trace shows why Table VI's
   ordering holds: only DDR3 pays refresh.  The numeric bands need the
   paper's scale and stay in test_shapes. *)
let any_config_claims_prop =
  QCheck.Test.make ~name:"claims hold on random configs"
    ~count:6
    QCheck.(
      quad
        (oneofl Nvsc_apps.Apps.names)
        (float_range 0.03 0.2) (int_range 2 4) (float_range 0.03 0.2))
    (fun (app, scale, iterations, perf_scale) ->
      let config = { E.scale; iterations; perf_scale } in
      let outcomes, _ =
        Engine.run ~jobs:1 (Engine.experiments_matrix ~config)
      in
      let data = Engine.experiments_data ~config outcomes in
      let failed =
        List.filter_map
          (fun (c : Nvsc_core.Claims.t) ->
            match Nvsc_core.Claims.evaluate data c with
            | measured, Nvsc_core.Claims.Failed when c.scope = Any_config ->
              Some (c.id ^ " measured " ^ measured)
            | _ -> None)
          Nvsc_core.Claims.all
      in
      if failed <> [] then
        QCheck.Test.fail_reportf "scale %g, %d iterations, perf_scale %g: %s"
          scale iterations perf_scale (String.concat "; " failed);
      let r =
        Nvsc_core.Scavenger.run
          Nvsc_core.Scavenger.Config.(
            default |> with_scale scale |> with_iterations iterations
            |> with_trace true)
          (Option.get (Nvsc_apps.Apps.find app))
      in
      let trace = Option.get r.mem_trace in
      let refresh =
        List.map
          (fun ((t : Technology.t), (st : Nvsc_dramsim.Controller.stats)) ->
            (t.name, st.refresh_energy_nj))
          (Nvsc_dramsim.Memory_system.compare_technologies
             ~techs:Technology.paper_set
             ~replay:(fun sink ->
               Nvsc_memtrace.Trace_log.replay_batch trace sink)
             ())
      in
      List.assoc "DDR3" refresh > 0.
      && List.for_all
           (fun name -> List.assoc name refresh = 0.)
           [ "PCRAM"; "STTRAM"; "MRAM" ])

(* --- grouped execution ---------------------------------------------------- *)

let payload_json p = Json.to_string (Cell.payload_to_json p)

let count_spans name f =
  Nvsc_obs.Span.reset ();
  let v = Nvsc_obs.scoped f in
  let n =
    List.length
      (List.filter
         (fun (e : Nvsc_obs.Span.event) -> e.name = name)
         (Nvsc_obs.Span.events ()))
  in
  Nvsc_obs.Span.reset ();
  (v, n)

(* One pass per group must be exactly as good as one pass per cell: every
   payload of the group equals the payload of the cell run alone. *)
let check_group_equals_separate ?trace ~pass specs =
  let separate, separate_passes =
    count_spans pass (fun () -> List.map (Cell.execute ?trace) specs)
  in
  let before = Nvsc_obs.Metrics.Counter.get runs in
  let grouped, grouped_passes =
    count_spans pass (fun () -> Cell.execute_group ?trace specs)
  in
  let runs_made = Nvsc_obs.Metrics.Counter.get runs - before in
  List.iter2
    (fun (s : Cell.spec) (a, b) ->
      Alcotest.(check string)
        (Cell.kind_to_string s.kind ^ " payload: group = alone")
        (payload_json a) (payload_json b))
    specs
    (List.combine separate grouped);
  Alcotest.(check int) ("one " ^ pass ^ " per cell alone")
    (List.length specs) separate_passes;
  Alcotest.(check int) ("one " ^ pass ^ " for the group") 1 grouped_passes;
  runs_made

let run_kinds = [ Cell.Objects; Cell.Power; Cell.Place ]

let test_group_live () =
  let specs =
    List.map
      (fun kind ->
        match kind with
        | Cell.Place -> spec ~app:"gtc" ~kind ~tech:Technology.PCRAM ()
        | _ -> spec ~app:"gtc" ~kind ())
      run_kinds
  in
  Alcotest.(check int) "exactly one scavenger run" 1
    (check_group_equals_separate ~pass:"scavenger.run" specs)

let test_group_trace_fed () =
  let path =
    Option.value (Sys.getenv_opt "GOLDEN_NVT") ~default:"test/golden/mini.nvt"
  in
  let meta, digest, _ = Nvsc_core.Trace_run.info path in
  let specs =
    List.map
      (fun kind ->
        spec ~app:meta.Nvsc_memtrace.Trace_codec.app ~kind
          ~scale:meta.scale ~iterations:meta.iterations
          ?tech:(if kind = Cell.Place then Some Technology.MRAM else None)
          ~trace_digest:digest ())
      run_kinds
  in
  Alcotest.(check int) "no application run" 0
    (check_group_equals_separate ~trace:path ~pass:"trace.replay" specs)

let test_group_partition () =
  let cells =
    List.mapi
      (fun i s -> (i, s))
      [
        spec ~kind:Cell.Objects ();
        spec ~kind:Cell.Perf ();
        spec ~kind:Cell.Power ();
        spec ~kind:Cell.Objects ~scale:0.2 ();
        spec ~kind:Cell.Perf ();
        spec ~kind:Cell.Place ~tech:Technology.MRAM ();
        spec ~kind:Cell.Objects ~trace_digest:(String.make 32 'a') ();
        spec ~app:"gtc" ~kind:Cell.Place ();
      ]
  in
  Alcotest.(check (list (list int)))
    "groups by run configuration, perf alone, first-appearance order"
    [ [ 0; 2; 5 ]; [ 1 ]; [ 3 ]; [ 4 ]; [ 6 ]; [ 7 ] ]
    (List.map (List.map fst) (Cell.group cells));
  Alcotest.(check bool) "cells of different runs rejected" true
    (match
       Cell.execute_group [ spec (); spec ~kind:Cell.Power ~iterations:3 () ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "spec codec" `Quick test_spec_codec;
    Alcotest.test_case "payload codecs render identically" `Quick
      test_payload_codecs_render_identically;
    Alcotest.test_case "perf payload roundtrip" `Quick
      test_perf_payload_roundtrip;
    Alcotest.test_case "code version keys the digest" `Quick
      test_code_version_keys_digest;
    Alcotest.test_case "matrix expansion" `Quick test_matrix_expansion;
    Alcotest.test_case "matrix validation" `Quick test_matrix_validation;
    Alcotest.test_case "overrides" `Quick test_overrides;
    Alcotest.test_case "pool preserves order" `Quick test_pool_order;
    Alcotest.test_case "pool empty + exceptions" `Quick
      test_pool_empty_and_exn;
    Alcotest.test_case "digest stability" `Quick test_digest_stability;
    QCheck_alcotest.to_alcotest digest_sensitive;
    Alcotest.test_case "cache cold/warm" `Quick test_cache_cold_warm;
    Alcotest.test_case "cache corruption recovery" `Quick
      test_cache_corruption;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "engine deterministic across jobs" `Quick
      test_engine_jobs_deterministic;
    Alcotest.test_case "engine cache cold then warm" `Quick
      test_engine_cache_cold_then_warm;
    Alcotest.test_case "engine hands outcomes on in report order" `Quick
      test_engine_on_outcome_order;
    Alcotest.test_case "experiments warm cache equals cold" `Slow
      test_experiments_warm_equals_cold;
    QCheck_alcotest.to_alcotest any_config_claims_prop;
    Alcotest.test_case "group partition" `Quick test_group_partition;
    Alcotest.test_case "live group equals separate cells, one run" `Quick
      test_group_live;
    Alcotest.test_case "trace-fed group equals separate cells, one replay"
      `Quick test_group_trace_fed;
  ]
