module TG = Nvsc_memtrace.Trace_gen
module Sink = Nvsc_memtrace.Sink
module Access = Nvsc_memtrace.Access

let test_sequential () =
  let t = TG.to_list (TG.sequential ~start:2 ~n:4 ()) in
  Alcotest.(check (list int)) "addresses"
    [ 128; 192; 256; 320 ]
    (List.map (fun (a : Access.t) -> a.addr) t);
  Alcotest.(check bool) "all reads" true (List.for_all Access.is_read t)

let test_strided () =
  let t = TG.to_list (TG.strided ~stride_lines:3 ~n:3 ()) in
  Alcotest.(check (list int)) "addresses" [ 0; 192; 384 ]
    (List.map (fun (a : Access.t) -> a.addr) t);
  Alcotest.(check bool) "bad stride rejected" true
    (try
       ignore (TG.strided ~stride_lines:0 ~n:1 ());
       false
     with Invalid_argument _ -> true)

let test_hot_cold_shares () =
  let t =
    TG.to_list
      (TG.hot_cold ~seed:3 ~hot_fraction:0.8 ~hot_lines:16 ~cold_lines:1024
         ~write_fraction:0.25 ~n:20_000 ())
  in
  let hot =
    List.length (List.filter (fun (a : Access.t) -> a.addr / 64 < 16) t)
  in
  let writes = List.length (List.filter Access.is_write t) in
  Alcotest.(check bool) "hot share near 0.8" true
    (Float.abs ((float_of_int hot /. 20_000.) -. 0.8) < 0.02);
  Alcotest.(check bool) "write share near 0.25" true
    (Float.abs ((float_of_int writes /. 20_000.) -. 0.25) < 0.02);
  Alcotest.(check bool) "cold lines in range" true
    (List.for_all (fun (a : Access.t) -> a.addr / 64 < 16 + 1024) t)

let test_hot_cold_deterministic () =
  let gen () =
    TG.to_list
      (TG.hot_cold ~seed:9 ~hot_fraction:0.5 ~hot_lines:8 ~cold_lines:8
         ~write_fraction:0.5 ~n:100 ())
  in
  Alcotest.(check bool) "same seed, same trace" true (gen () = gen ())

let test_streaming_matches_list () =
  (* the streaming path into a sink and the list shim must agree exactly,
     whatever the sink capacity *)
  let gen () =
    TG.zipf ~seed:12 ~lines:512 ~write_fraction:0.4 ~n:3_000 ()
  in
  let expected = TG.to_list (gen ()) in
  List.iter
    (fun capacity ->
      let got = ref [] in
      let sink = Sink.of_fn ~capacity (fun a -> got := a :: !got) in
      let pushed = TG.into (gen ()) sink in
      Sink.flush sink;
      Alcotest.(check int)
        (Printf.sprintf "pushed (capacity %d)" capacity)
        3_000 pushed;
      Alcotest.(check bool)
        (Printf.sprintf "identical stream (capacity %d)" capacity)
        true
        (List.rev !got = expected))
    [ 1; 7; 65536 ]

let test_zipf_skew () =
  let t = TG.to_list (TG.zipf ~seed:5 ~lines:1000 ~write_fraction:0. ~n:50_000 ()) in
  let count line =
    List.length (List.filter (fun (a : Access.t) -> a.addr / 64 = line) t)
  in
  (* Zipf(1): line 0 should get roughly 1/H(1000) ~ 13% of accesses, and
     far more than line 500 *)
  Alcotest.(check bool) "head is hot" true (count 0 > 5_000);
  Alcotest.(check bool) "head >> tail" true (count 0 > 20 * (count 500 + 1));
  Alcotest.(check bool) "lines in range" true
    (List.for_all (fun (a : Access.t) -> a.addr / 64 < 1000) t)

let test_interleave () =
  let r addr = Access.read ~addr ~size:64 in
  let merged =
    TG.to_list
      (TG.interleave
         [
           TG.of_list [ r 1; r 2 ];
           TG.of_list [ r 10 ];
           TG.of_list [ r 100; r 200; r 300 ];
         ])
  in
  Alcotest.(check (list int)) "round robin with drain"
    [ 1; 10; 100; 2; 200; 300 ]
    (List.map (fun (a : Access.t) -> a.addr) merged)

let test_interleave_unequal_through_sink () =
  (* unequal stream lengths drained through a small-capacity sink: every
     reference arrives, in round-robin-with-drain order *)
  let addrs = ref [] in
  let sink = Sink.of_fn ~capacity:4 (fun a -> addrs := a.Access.addr :: !addrs) in
  let gen =
    TG.interleave
      [
        TG.sequential ~start:0 ~n:5 ();
        TG.sequential ~start:100 ~n:2 ();
        TG.sequential ~start:200 ~n:1 ();
      ]
  in
  let pushed = TG.into gen sink in
  Sink.flush sink;
  Alcotest.(check int) "all pushed" 8 pushed;
  let line a = a / 64 in
  Alcotest.(check (list int)) "drain order"
    [ 0; 100; 200; 1; 101; 2; 3; 4 ]
    (List.rev_map line !addrs)

let test_feeds_simulators () =
  (* generated traces drive the memory system end to end *)
  let t =
    TG.to_list (TG.zipf ~seed:1 ~lines:4096 ~write_fraction:0.3 ~n:5_000 ())
  in
  let s =
    let c =
      Nvsc_dramsim.Controller.create
        ~tech:(Nvsc_nvram.Technology.get Nvsc_nvram.Technology.DDR3) ()
    in
    List.iter (Nvsc_dramsim.Controller.submit c) t;
    Nvsc_dramsim.Controller.stats c
  in
  Alcotest.(check int) "all simulated" 5000 s.Nvsc_dramsim.Controller.accesses;
  Alcotest.(check bool) "hot head gives row hits" true
    (s.Nvsc_dramsim.Controller.row_hit_rate > 0.5)

let suite =
  [
    Alcotest.test_case "sequential" `Quick test_sequential;
    Alcotest.test_case "strided" `Quick test_strided;
    Alcotest.test_case "hot/cold shares" `Quick test_hot_cold_shares;
    Alcotest.test_case "determinism" `Quick test_hot_cold_deterministic;
    Alcotest.test_case "streaming matches list" `Quick
      test_streaming_matches_list;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "interleave" `Quick test_interleave;
    Alcotest.test_case "interleave unequal through sink" `Quick
      test_interleave_unequal_through_sink;
    Alcotest.test_case "feeds simulators" `Quick test_feeds_simulators;
  ]
