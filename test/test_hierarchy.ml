module H = Nvsc_cachesim.Hierarchy
module P = Nvsc_cachesim.Cache_params
module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink

let small_l1 =
  P.make ~name:"L1" ~size_bytes:(64 * 8) ~associativity:2
    ~write_miss:P.No_write_allocate ()

let small_l2 =
  P.make ~name:"L2" ~size_bytes:(64 * 32) ~associativity:4
    ~write_miss:P.Write_allocate ()

let make () =
  let trace = ref [] in
  (* capacity 1: every memory-side reference is delivered immediately, so
     the tests can inspect [trace] without flushing *)
  let sink = Sink.of_fn ~capacity:1 (fun a -> trace := a :: !trace) in
  let h = H.create ~l1d:small_l1 ~l2:small_l2 ~sink () in
  (h, trace)

let test_read_miss_generates_memory_read () =
  let h, trace = make () in
  H.access h (Access.read ~addr:0 ~size:8);
  Alcotest.(check int) "one memory read" 1 (H.memory_reads h);
  Alcotest.(check int) "no writes" 0 (H.memory_writes h);
  (match !trace with
  | [ a ] ->
    Alcotest.(check bool) "line-sized read" true
      (Access.is_read a && a.Access.size = 64 && a.Access.addr = 0)
  | _ -> Alcotest.fail "expected one access");
  (* re-access: fully cached, no new traffic *)
  H.access h (Access.read ~addr:8 ~size:8);
  Alcotest.(check int) "still one" 1 (H.memory_reads h)

let test_write_miss_propagates () =
  let h, _ = make () in
  (* L1 no-write-allocate forwards to L2; L2 write-allocate fetches *)
  H.access h (Access.write ~addr:0 ~size:8);
  Alcotest.(check int) "fill read" 1 (H.memory_reads h);
  Alcotest.(check int) "no eager write" 0 (H.memory_writes h);
  (* the dirty line only reaches memory on drain/eviction *)
  H.drain h;
  Alcotest.(check int) "writeback on drain" 1 (H.memory_writes h)

let test_drain_idempotent () =
  let h, _ = make () in
  H.access h (Access.write ~addr:0 ~size:8);
  H.drain h;
  let w = H.memory_writes h in
  H.drain h;
  Alcotest.(check int) "second drain adds nothing" w (H.memory_writes h)

let test_line_split () =
  let h, _ = make () in
  (* a 16-byte access straddling a line boundary touches two lines *)
  H.access h (Access.read ~addr:56 ~size:16);
  Alcotest.(check int) "two line accesses" 2 (H.accesses h);
  Alcotest.(check int) "two memory reads" 2 (H.memory_reads h)

let test_capacity_eviction_traffic () =
  let h, _ = make () in
  (* write a footprint larger than L2 (32 lines): must force dirty
     evictions to memory *)
  for i = 0 to 99 do
    H.access h (Access.write ~addr:(i * 64) ~size:8)
  done;
  Alcotest.(check bool) "dirty evictions reached memory" true
    (H.memory_writes h > 0);
  Alcotest.(check int) "compulsory fills" 100 (H.memory_reads h)

let test_classification () =
  let h, _ = make () in
  Alcotest.(check bool) "cold -> Mem" true
    (H.access_classified h (Access.read ~addr:0 ~size:8) = `Mem);
  Alcotest.(check bool) "hot -> L1" true
    (H.access_classified h (Access.read ~addr:0 ~size:8) = `L1);
  (* evict from tiny L1 (8 lines, 2-way/4 sets) but keep in L2: lines 0,4,8
     map to the same L1 set (4 sets) *)
  H.access h (Access.read ~addr:(4 * 64) ~size:8);
  H.access h (Access.read ~addr:(8 * 64) ~size:8);
  Alcotest.(check bool) "L1 victim -> L2" true
    (H.access_classified h (Access.read ~addr:0 ~size:8) = `L2)

let test_reset () =
  let h, _ = make () in
  H.access h (Access.write ~addr:0 ~size:8);
  H.reset h;
  Alcotest.(check int) "no accesses" 0 (H.accesses h);
  Alcotest.(check int) "no reads" 0 (H.memory_reads h);
  (* after reset the same access is cold again *)
  Alcotest.(check bool) "cold again" true
    (H.access_classified h (Access.read ~addr:0 ~size:8) = `Mem)

let test_mismatched_lines_rejected () =
  let l2_bad =
    P.make ~name:"L2" ~size_bytes:4096 ~associativity:4 ~line_bytes:128
      ~write_miss:P.Write_allocate ()
  in
  Alcotest.check_raises "line mismatch"
    (Invalid_argument "Hierarchy.create: levels must share a line size")
    (fun () -> ignore (H.create ~l1d:small_l1 ~l2:l2_bad ~sink:(Sink.null ()) ()))

let conservation_prop =
  QCheck.Test.make ~name:"all stores eventually reach memory" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range 0 200))
    (fun lines ->
      (* write-only workload: after drain, the set of lines written to
         memory must equal the set of lines stored to *)
      let written = Hashtbl.create 64 in
      let h =
        H.create ~l1d:small_l1 ~l2:small_l2
          ~sink:
            (Sink.of_fn (fun a ->
                 if Access.is_write a then
                   Hashtbl.replace written (a.Access.addr / 64) ()))
          ()
      in
      List.iter (fun l -> H.access h (Access.write ~addr:(l * 64) ~size:8)) lines;
      H.drain h;
      List.for_all (fun l -> Hashtbl.mem written l) lines)

(* Property: line-run coalescing in [consume] (the batch-time run
   detector that replays a run of same-line references through the
   repeat-line memo in one probe) is invisible in every counter and every
   trace record.  Random run-heavy word-granular streams are replayed
   per reference through [access_raw], which never coalesces, and through
   [consume] in 64-reference slices; DESIGN.md "Kernel fast paths" has the
   proof sketch. *)
let gen_run_stream =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (triple (int_bound 0x3FFF) (int_range 1 24) (int_bound 255)))

let expand_runs segs =
  List.concat_map
    (fun (line, len, wpat) ->
      List.init len (fun j ->
          let addr = 0x400000 + (line * 64) + ((j * 4) land 63) in
          let op =
            if (wpat lsr (j land 7)) land 1 = 1 then Access.Write
            else Access.Read
          in
          (addr, 4, op)))
    segs

let replay_fingerprint feed =
  let trace = ref [] in
  let h =
    H.create
      ~sink:
        (Sink.of_fn (fun a ->
             trace := (a.Access.addr, a.Access.size, a.Access.op) :: !trace))
      ()
  in
  feed h;
  H.drain h;
  let cache c =
    Nvsc_cachesim.Cache.
      [
        hits c; misses c; read_hits c; read_misses c; write_hits c;
        write_misses c; evictions c; dirty_evictions c;
      ]
  in
  ( (cache (H.l1d h), cache (H.l2 h)),
    (H.accesses h, H.memory_reads h, H.memory_writes h),
    List.rev !trace )

let coalescing_invisible =
  QCheck.Test.make ~name:"run coalescing is invisible (per-ref = consume)"
    ~count:20 (QCheck.make gen_run_stream) (fun segs ->
      let refs = Array.of_list (expand_runs segs) in
      let per_ref h =
        Array.iter (fun (addr, size, op) -> H.access_raw h ~addr ~size ~op) refs
      in
      let consumed h =
        let cap = 64 in
        let batch = Sink.Batch.create cap in
        let len = Array.length refs in
        let first = ref 0 in
        while !first < len do
          let n = min cap (len - !first) in
          for i = 0 to n - 1 do
            let addr, size, op = refs.(!first + i) in
            Sink.Batch.set batch i ~addr ~size ~op
          done;
          H.consume h batch ~first:0 ~n;
          first := !first + n
        done
      in
      replay_fingerprint per_ref = replay_fingerprint consumed)

let suite =
  [
    Alcotest.test_case "read miss -> memory read" `Quick
      test_read_miss_generates_memory_read;
    Alcotest.test_case "write miss propagation" `Quick test_write_miss_propagates;
    Alcotest.test_case "drain idempotent" `Quick test_drain_idempotent;
    Alcotest.test_case "line splitting" `Quick test_line_split;
    Alcotest.test_case "capacity eviction traffic" `Quick
      test_capacity_eviction_traffic;
    Alcotest.test_case "access classification" `Quick test_classification;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "mismatched line sizes" `Quick
      test_mismatched_lines_rejected;
    QCheck_alcotest.to_alcotest conservation_prop;
    QCheck_alcotest.to_alcotest coalescing_invisible;
  ]
