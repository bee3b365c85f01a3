(* FR-FCFS scheduling: DRAMSim2's discipline, as an option against the
   default in-order issue. *)

module C = Nvsc_dramsim.Controller
module Access = Nvsc_memtrace.Access
module Tech = Nvsc_nvram.Technology

let ddr3 = Tech.get Tech.DDR3

(* A pathological interleave: two row streams in the same bank, strictly
   alternating.  FCFS ping-pongs between rows (every access a row miss);
   FR-FCFS batches the open row's accesses first. *)
let ping_pong n =
  (* rows 0 and 2 of (rank 0, bank 0) under the default mapping: lines
     0..127 are row 0; lines with row index 2 sit 2*16*16 row-chunks away *)
  let row_stride_lines = 128 * 16 * 16 in
  List.concat
    (List.init n (fun i ->
         [
           Access.read ~addr:((i mod 64) * 64) ~size:64;
           Access.read ~addr:((2 * row_stride_lines * 64) + ((i mod 64) * 64)) ~size:64;
         ]))

let run ?scheduler trace =
  let c = C.create ?scheduler ~tech:ddr3 () in
  Batches.feed (C.consume c) trace;
  C.stats c

let test_fr_fcfs_improves_row_hits () =
  let trace = ping_pong 200 in
  let fcfs = run trace in
  let fr = run ~scheduler:(C.Fr_fcfs 16) trace in
  Alcotest.(check bool) "more row hits" true (fr.C.row_hits > fcfs.C.row_hits);
  Alcotest.(check bool) "no worse makespan" true
    (fr.C.elapsed_ns <= fcfs.C.elapsed_ns +. 1e-6);
  Alcotest.(check int) "same work" fcfs.C.accesses fr.C.accesses

let test_fr_fcfs_flush_completes () =
  let c = C.create ~scheduler:(C.Fr_fcfs 32) ~tech:ddr3 () in
  (* fewer transactions than the lookahead: nothing issues until flush *)
  for i = 0 to 9 do
    C.submit_ref c ~addr:(i * 64) ~op:Access.Read
  done;
  let s = C.stats c (* stats flushes *) in
  Alcotest.(check int) "all issued" 10 s.C.accesses

let test_fr_fcfs_equivalent_on_stream () =
  (* on a purely sequential stream reordering changes nothing *)
  let trace = List.init 500 (fun i -> Access.read ~addr:(i * 64) ~size:64) in
  let fcfs = run trace in
  let fr = run ~scheduler:(C.Fr_fcfs 8) trace in
  Alcotest.(check int) "same hits" fcfs.C.row_hits fr.C.row_hits;
  Alcotest.(check (float 1e-6)) "same makespan" fcfs.C.elapsed_ns fr.C.elapsed_ns

let test_depth_validation () =
  Alcotest.check_raises "depth"
    (Invalid_argument "Controller.create: Fr_fcfs depth must be positive")
    (fun () -> ignore (C.create ~scheduler:(C.Fr_fcfs 0) ~tech:ddr3 ()))

let conservation_prop =
  QCheck.Test.make ~name:"fr-fcfs conserves accesses and energy components"
    ~count:20
    QCheck.(list_of_size Gen.(int_range 0 300) (pair (int_range 0 100_000) bool))
    (fun evs ->
      let trace =
        List.map
          (fun (l, w) ->
            if w then Access.write ~addr:(l * 64) ~size:64
            else Access.read ~addr:(l * 64) ~size:64)
          evs
      in
      let fcfs = run trace in
      let fr = run ~scheduler:(C.Fr_fcfs 8) trace in
      fr.C.accesses = fcfs.C.accesses
      && fr.C.reads = fcfs.C.reads
      && fr.C.writes = fcfs.C.writes
      && fr.C.row_hits + fr.C.row_misses = fr.C.accesses
      (* the addend multiset is identical; only rounding order differs *)
      && Float.abs (fr.C.burst_energy_nj -. fcfs.C.burst_energy_nj) < 1e-6)

let suite =
  [
    Alcotest.test_case "FR-FCFS improves row hits" `Quick
      test_fr_fcfs_improves_row_hits;
    Alcotest.test_case "flush completes buffered work" `Quick
      test_fr_fcfs_flush_completes;
    Alcotest.test_case "equivalent on streams" `Quick
      test_fr_fcfs_equivalent_on_stream;
    Alcotest.test_case "depth validation" `Quick test_depth_validation;
    QCheck_alcotest.to_alcotest conservation_prop;
  ]
