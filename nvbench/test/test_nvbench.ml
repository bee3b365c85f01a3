open Nvbench_lib
module J = Nvsc_util.Json

let benchmark_json = "../../BENCHMARK.json"
let expected_dir = "../expected"
let golden_quick = "../../test/golden/experiments-quick.txt"
let approx = Alcotest.float 1e-9

(* --- statistics ----------------------------------------------------------- *)

let test_median () =
  Alcotest.check approx "odd" 2. (Sample_stats.median [ 3.; 1.; 2. ]);
  Alcotest.check approx "even" 2.5 (Sample_stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check approx "single" 7. (Sample_stats.median [ 7. ])

(* reference values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let check name xs (q1, q2, q3) =
    let a, b, c = Sample_stats.quartiles xs in
    Alcotest.check approx (name ^ " q1") q1 a;
    Alcotest.check approx (name ^ " q2") q2 b;
    Alcotest.check approx (name ^ " q3") q3 c
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two points" [ 1.; 2. ] (0.75, 1.5, 2.25);
  check "unsorted" [ 3.; 1.; 2. ] (1., 2., 3.);
  check "five" [ 0.91; 1.0; 1.05; 0.98; 1.02 ] (0.945, 1.0, 1.035);
  let s = Sample_stats.summarize [ 0.91; 1.0; 1.05; 0.98; 1.02 ] in
  Alcotest.check approx "min" 0.91 s.min;
  Alcotest.check approx "max" 1.05 s.max;
  Alcotest.(check int) "n" 5 s.n;
  Alcotest.check approx "iqr" 0.09 (Sample_stats.iqr s)

(* --- the comparison rule --------------------------------------------------- *)

let parent = [ 0.98; 0.99; 1.00; 1.00; 1.01; 1.02 ]
let scaled k = List.map (fun x -> x *. k) parent

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Verdict.to_string v))
    ( = )

let judge ?(better = Spec.Lower) ?(bound = 0.10) p c =
  Verdict.judge ~better ~bound ~parent:(Sample_stats.summarize p)
    ~change:(Sample_stats.summarize c)

let test_judge () =
  Alcotest.check approx "notch of 1..10" (1.58 *. 5.5 /. sqrt 10.)
    (Verdict.notch
       (Sample_stats.summarize (List.init 10 (fun i -> float_of_int (i + 1)))));
  Alcotest.check verdict "20% slower" Verdict.Regression (judge parent (scaled 1.2));
  Alcotest.check verdict "inside the parent's IQR" Verdict.Ok
    (judge parent [ 0.99; 1.0; 1.005; 1.01; 1.015 ]);
  Alcotest.check verdict "worse, but within the bound" Verdict.Ok
    (judge parent (scaled 1.05));
  let loose = [ 0.88; 0.9; 0.92; 0.96; 1.0; 1.04; 1.08; 1.1; 1.12 ] in
  Alcotest.check verdict "beyond the bound, inside the notches" Verdict.Ok
    (judge loose (List.map (fun x -> x *. 1.12) loose));
  Alcotest.check verdict "20% faster" Verdict.Improved (judge parent (scaled 0.8));
  Alcotest.check verdict "throughput down 20%" Verdict.Regression
    (judge ~better:Spec.Higher parent (scaled 0.8));
  let wide = [ 0.7; 0.9; 1.0; 1.1; 1.3 ] in
  Alcotest.check verdict "notch wider than the bound" Verdict.Unresolved
    (judge wide (List.map (fun x -> x *. 1.3) wide));
  Alcotest.check verdict "wide notch, every change sample better"
    Verdict.Improved
    (judge wide [ 0.5; 0.55; 0.6; 0.62; 0.65 ])

let doc ?(failed = 0) wall =
  [
    {
      Ledger.name = "run-cam";
      variant = "sttram";
      attempted = 20;
      failed;
      failures = [];
      rows =
        [
          { Ledger.metric = Spec.find_metric "wall_s"; stats = Sample_stats.summarize wall };
          {
            Ledger.metric = Spec.find_metric "appkit.ns_per_ref";
            stats = Sample_stats.summarize [ 20.; 21. ];
          };
        ];
    };
  ]

(* the compare step over result documents, through their JSON form *)
let compare_docs p c =
  let roundtrip d =
    Ledger.of_json (J.of_string (J.to_string (Ledger.to_json ~seed:1 ~samples:6 ~reps:1 d)))
  in
  Ledger.compare ~parent:(roundtrip p) ~change:(roundtrip c)

let test_compare () =
  let _, bad = compare_docs (doc parent) (doc parent) in
  Alcotest.(check bool) "same samples pass" false bad;
  let lines, bad = compare_docs (doc parent) (doc (scaled 1.5)) in
  Alcotest.(check bool) "regression fails" true bad;
  Alcotest.(check bool) "regression row" true
    (List.exists
       (fun (l : Ledger.line) -> l.metric = "wall_s" && l.verdict = "REGRESSION")
       lines);
  Alcotest.(check bool) "per-layer rows carry no verdict" true
    (List.exists
       (fun (l : Ledger.line) -> l.metric = "appkit.ns_per_ref" && l.verdict = "")
       lines);
  let lines, bad = compare_docs (doc parent) (doc ~failed:1 parent) in
  Alcotest.(check bool) "failed_frac rise fails" true bad;
  Alcotest.(check bool) "rise row" true
    (List.exists
       (fun (l : Ledger.line) -> l.metric = "failed_frac" && l.verdict = "RISE")
       lines);
  let _, bad = compare_docs (doc ~failed:1 parent) (doc parent) in
  Alcotest.(check bool) "failed_frac fall passes" false bad

(* --- declarations ----------------------------------------------------------- *)

let all_metrics = Spec.end_to_end @ Spec.per_layer

let matches ~first ~rest ~max s =
  let n = String.length s in
  n >= 1 && n <= max && first s.[0]
  && String.for_all rest s

let alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let test_names () =
  let name_char c = alnum c || c = '_' || c = '.' || c = '-' in
  let unit_char c = name_char c || c = '/' || c = '%' in
  let names =
    List.map (fun (m : Spec.metric) -> m.name) all_metrics
    @ List.map (fun (w : Spec.workload) -> w.name) Spec.workloads
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("name " ^ n) true
        (matches ~first:alnum ~rest:name_char ~max:64 n))
    names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) ("unit of " ^ m.name) true
        (matches ~first:unit_char ~rest:unit_char ~max:16 m.unit_))
    all_metrics

let benchmark () =
  J.of_string (In_channel.with_open_text benchmark_json In_channel.input_all)

let test_benchmark_json () =
  let b = benchmark () in
  let names key = List.map (fun j -> J.to_str (J.member "name" j)) (J.to_list (J.member key b)) in
  let sorted = List.sort compare in
  Alcotest.(check (list string)) "workloads"
    (sorted (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads))
    (sorted (names "workloads"));
  let declared key =
    List.map
      (fun j ->
        ( J.to_str (J.member "name" j),
          J.to_str (J.member "unit" j),
          J.to_str (J.member "better" j),
          Option.map J.to_float (J.member_opt "bound" j) ))
      (J.to_list (J.member key b))
  in
  let ours ms =
    List.map
      (fun (m : Spec.metric) ->
        (m.name, m.unit_, Spec.better_to_string m.better, m.bound))
      ms
  in
  let row = Alcotest.(list (pair string (pair string (pair string (option (float 1e-12)))))) in
  let nest = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  Alcotest.check row "end_to_end" (nest (ours Spec.end_to_end)) (nest (declared "end_to_end"));
  Alcotest.check row "per_layer" (nest (ours Spec.per_layer)) (nest (declared "per_layer"));
  Alcotest.(check (list string)) "paths" [ "nvbench" ]
    (List.map J.to_str (J.to_list (J.member "paths" b)))

let test_expected () =
  List.iter
    (fun (w : Spec.workload) ->
      let e = Spec.load_expected ~dir:expected_dir w in
      Alcotest.(check bool) (w.name ^ " counts references") true (e.refs > 0);
      List.iter
        (fun v ->
          match List.assoc_opt v e.stdout with
          | Some md5 ->
            Alcotest.(check int) (w.name ^ " " ^ v ^ " digest") 32 (String.length md5)
          | None -> Alcotest.failf "%s: no expected digest for variant %s" w.name v)
        (Spec.variants w);
      Alcotest.(check bool) (w.name ^ " set-up digest") w.replay (e.setup <> None))
    Spec.workloads;
  let quick = Option.get (Spec.find_workload "experiments-quick") in
  Alcotest.(check string) "experiments-quick matches the golden file"
    (Digest.to_hex (Digest.file golden_quick))
    (List.assoc "-" (Spec.load_expected ~dir:expected_dir quick).stdout)

let () =
  Alcotest.run "nvbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_judge;
          Alcotest.test_case "result documents" `Quick test_compare;
        ] );
      ( "declarations",
        [
          Alcotest.test_case "metric names and units" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "expected outputs" `Quick test_expected;
        ] );
    ]
