module HS = Nvsc_dramsim.Hybrid_system
module Controller = Nvsc_dramsim.Controller
module Access = Nvsc_memtrace.Access
module Tech = Nvsc_nvram.Technology

let sttram = Tech.get Tech.STTRAM

(* route by address parity of the line *)
let parity_placement addr =
  if addr / 64 mod 2 = 0 then HS.Dram_side else HS.Nvram_side

let seq n = List.init n (fun i -> Access.read ~addr:(i * 64) ~size:64)

let test_routing () =
  let h = HS.create ~nvram:sttram ~placement:parity_placement () in
  Batches.feed (HS.consume h) (seq 100);
  let s = HS.stats h in
  Alcotest.(check int) "all counted" 100 s.HS.accesses;
  Alcotest.(check int) "half to DRAM" 50 s.HS.dram.Controller.accesses;
  Alcotest.(check int) "half to NVRAM" 50 s.HS.nvram.Controller.accesses;
  Alcotest.(check (float 1e-9)) "fraction" 0.5 s.HS.nvram_fraction

let test_all_dram_placement () =
  let h = HS.create ~nvram:sttram ~placement:(fun _ -> HS.Dram_side) () in
  Batches.feed (HS.consume h) (seq 200);
  let s = HS.stats h in
  Alcotest.(check int) "NVRAM idle" 0 s.HS.nvram.Controller.accesses;
  (* the idle NVRAM half still burns its background power over the joint
     makespan *)
  Alcotest.(check bool) "background charged" true (s.HS.total_energy_nj > 0.);
  Alcotest.(check (float 1e-9)) "no NVRAM writes" 0. s.HS.nvram_write_fraction

let test_write_fraction () =
  let h = HS.create ~nvram:sttram ~placement:parity_placement () in
  (* writes only on odd lines -> all writes to NVRAM *)
  Batches.feed (HS.consume h)
    (List.concat
       (List.init 50 (fun i ->
            [
              Access.write ~addr:(((2 * i) + 1) * 64) ~size:64;
              Access.read ~addr:(2 * i * 64) ~size:64;
            ])));
  let s = HS.stats h in
  Alcotest.(check (float 1e-9)) "all writes to NVRAM" 1.0 s.HS.nvram_write_fraction

let test_makespan_is_max () =
  let h = HS.create ~nvram:sttram ~placement:parity_placement () in
  Batches.feed (HS.consume h) (seq 500);
  let s = HS.stats h in
  Alcotest.(check bool) "joint makespan covers both sides" true
    (s.HS.elapsed_ns >= s.HS.dram.Controller.elapsed_ns
    && s.HS.elapsed_ns >= s.HS.nvram.Controller.elapsed_ns)

let test_compare_designs_bounds () =
  let trace =
    List.init 3000 (fun i ->
        if i mod 4 = 0 then Access.write ~addr:(i * 64) ~size:64
        else Access.read ~addr:(i * 64) ~size:64)
  in
  let designs, hs =
    HS.compare_designs ~nvram:sttram ~placement:parity_placement
      ~replay:(fun sink -> Batches.feed (Nvsc_memtrace.Sink.deliver sink) trace)
      ()
  in
  let power name =
    let _, p, _ = List.find (fun (n, _, _) -> n = name) designs in
    p
  in
  Alcotest.(check (float 1e-9)) "baseline" 1.0 (power "all-DRAM");
  Alcotest.(check bool) "all-NVRAM saves" true (power "all-STTRAM" < 1.0);
  Alcotest.(check bool) "hybrid between the bounds" true
    (power "hybrid" <= 1.0 +. 1e-9
    && power "hybrid" >= power "all-STTRAM" -. 0.05);
  (* the hybrid's own stats: odd lines (every read-only one of them) are
     NVRAM-side *)
  Alcotest.(check int) "hybrid saw the whole trace" 3000 hs.HS.accesses;
  Alcotest.(check (float 1e-9)) "half the accesses NVRAM-side" 0.5
    hs.HS.nvram_fraction;
  Alcotest.(check (float 1e-9)) "no write NVRAM-side" 0.
    hs.HS.nvram_write_fraction

let test_validation () =
  Alcotest.check_raises "volatile NVRAM side"
    (Invalid_argument "Hybrid_system.create: nvram side must be an NVRAM technology")
    (fun () ->
      ignore
        (HS.create ~nvram:(Tech.get Tech.DDR3) ~placement:parity_placement ()))

let suite =
  [
    Alcotest.test_case "routing" `Quick test_routing;
    Alcotest.test_case "all-DRAM placement" `Quick test_all_dram_placement;
    Alcotest.test_case "write fraction" `Quick test_write_fraction;
    Alcotest.test_case "makespan is max of sides" `Quick test_makespan_is_max;
    Alcotest.test_case "compare designs bounds" `Quick
      test_compare_designs_bounds;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
