module Ctx = Nvsc_appkit.Ctx
module Farray = Nvsc_appkit.Farray
module Access = Nvsc_memtrace.Access
module Layout = Nvsc_memtrace.Layout
module Mem_object = Nvsc_memtrace.Mem_object
module Counters = Nvsc_memtrace.Counters

let test_global_allocation () =
  let ctx = Ctx.create () in
  let a = Farray.global ctx ~name:"g1" 10 in
  let b = Farray.global ctx ~name:"g2" 10 in
  Alcotest.(check bool) "in global segment" true
    (Layout.classify (Farray.base a) = Some Layout.Global);
  Alcotest.(check bool) "disjoint" true
    (Farray.base b >= Farray.base a + (10 * Layout.word))

let test_access_attribution () =
  let ctx = Ctx.create () in
  let a = Farray.global ctx ~name:"g" 10 in
  Ctx.set_phase ctx (Mem_object.Main 1);
  ignore (Farray.get a 3);
  Farray.set a 4 1.0;
  let obj = Option.get (Farray.obj a) in
  let c = Ctx.counters ctx in
  Alcotest.(check int) "read counted" 1
    (Counters.reads c ~obj_id:obj.Mem_object.id ~iter:1);
  Alcotest.(check int) "write counted" 1
    (Counters.writes c ~obj_id:obj.Mem_object.id ~iter:1);
  Alcotest.(check int) "no unattributed" 0 (Ctx.unattributed ctx)

let test_values_roundtrip () =
  let ctx = Ctx.create () in
  let a = Farray.heap ctx ~site:"h" 5 in
  Farray.set a 2 3.25;
  Alcotest.(check (float 1e-12)) "get returns set" 3.25 (Farray.get a 2);
  Alcotest.(check (float 1e-12)) "peek silent" 3.25 (Farray.peek a 2);
  Farray.poke a 2 7.5;
  Alcotest.(check (float 1e-12)) "poke silent" 7.5 (Farray.peek a 2)

let test_heap_signature_reuse () =
  let ctx = Ctx.create () in
  let a = Farray.heap ctx ~site:"scratch" 8 in
  let obj_a = Option.get (Farray.obj a) in
  Farray.free ctx a;
  let b = Farray.heap ctx ~site:"scratch" 8 in
  let obj_b = Option.get (Farray.obj b) in
  Alcotest.(check int) "same identity across realloc" obj_a.Mem_object.id
    obj_b.Mem_object.id;
  Alcotest.(check int) "same base" obj_a.Mem_object.base obj_b.Mem_object.base;
  Alcotest.(check bool) "live again" true obj_b.Mem_object.live

let test_heap_live_collision () =
  let ctx = Ctx.create () in
  let a = Farray.heap ctx ~site:"dup" 8 in
  let b = Farray.heap ctx ~site:"dup" 8 in
  let oa = Option.get (Farray.obj a) and ob = Option.get (Farray.obj b) in
  Alcotest.(check bool) "distinct objects" true
    (oa.Mem_object.id <> ob.Mem_object.id);
  Alcotest.(check bool) "distinct ranges" true
    (not (Mem_object.overlaps oa ~base:ob.Mem_object.base ~size:ob.Mem_object.size))

let test_stack_frames_and_attribution () =
  let ctx = Ctx.create () in
  Ctx.set_phase ctx (Mem_object.Main 1);
  Ctx.call ctx ~routine:"kernel" ~frame_words:16 (fun frame ->
      let t = Farray.stack ctx frame 8 in
      Farray.set t 0 1.;
      ignore (Farray.get t 0);
      ignore (Farray.get t 0));
  let obj = Option.get (Ctx.stack_object_of_routine ctx "kernel") in
  let c = Ctx.counters ctx in
  Alcotest.(check int) "frame reads" 2
    (Counters.reads c ~obj_id:obj.Mem_object.id ~iter:1);
  Alcotest.(check int) "frame writes" 1
    (Counters.writes c ~obj_id:obj.Mem_object.id ~iter:1);
  Alcotest.(check bool) "stack kind" true (obj.Mem_object.kind = Layout.Stack)

let test_stack_object_identity_across_calls () =
  let ctx = Ctx.create () in
  let ids = ref [] in
  for _ = 1 to 3 do
    Ctx.call ctx ~routine:"r" ~frame_words:4 (fun frame ->
        let t = Farray.stack ctx frame 2 in
        Farray.set t 0 0.;
        ids :=
          (Option.get (Ctx.stack_object_of_routine ctx "r")).Mem_object.id
          :: !ids)
  done;
  match !ids with
  | [ a; b; c ] ->
    Alcotest.(check bool) "one object per routine" true (a = b && b = c);
    Alcotest.(check int) "one stack object" 1 (List.length (Ctx.stack_objects ctx))
  | _ -> Alcotest.fail "expected three calls"

let test_frame_exhaustion () =
  let ctx = Ctx.create () in
  Ctx.call ctx ~routine:"small" ~frame_words:4 (fun frame ->
      ignore (Farray.stack ctx frame 4);
      Alcotest.(check bool) "carve beyond frame raises" true
        (try
           ignore (Farray.stack ctx frame 1);
           false
         with Invalid_argument _ -> true))

let test_frame_pop_on_exception () =
  let ctx = Ctx.create () in
  (try
     Ctx.call ctx ~routine:"boom" ~frame_words:4 (fun _ -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0
    (Nvsc_memtrace.Shadow_stack.depth (Ctx.shadow ctx))

let test_fast_tally () =
  let ctx = Ctx.create () in
  let g = Farray.global ctx ~name:"g" 4 in
  Ctx.set_phase ctx (Mem_object.Main 2);
  ignore (Farray.get g 0);
  Ctx.call ctx ~routine:"r" ~frame_words:4 (fun frame ->
      let t = Farray.stack ctx frame 2 in
      Farray.set t 0 0.;
      ignore (Farray.get t 0));
  let tal = Ctx.fast_tally ctx ~iter:2 in
  Alcotest.(check int) "stack reads" 1 tal.Ctx.stack_reads;
  Alcotest.(check int) "stack writes" 1 tal.Ctx.stack_writes;
  Alcotest.(check int) "other reads" 1 tal.Ctx.other_reads;
  let tot = Ctx.fast_tally_totals ctx in
  Alcotest.(check int) "totals" 3
    (tot.Ctx.stack_reads + tot.Ctx.stack_writes + tot.Ctx.other_reads
   + tot.Ctx.other_writes)

let test_sink_stream () =
  let ctx = Ctx.create () in
  let seen = ref [] in
  Ctx.add_sink ctx (Nvsc_memtrace.Sink.of_fn (fun a -> seen := a :: !seen));
  let g = Farray.global ctx ~name:"g" 4 in
  Farray.set g 1 2.0;
  ignore (Farray.get g 1);
  Ctx.flush_refs ctx;
  match List.rev !seen with
  | [ w; r ] ->
    Alcotest.(check bool) "write then read" true
      (Access.is_write w && Access.is_read r);
    Alcotest.(check int) "same address" w.Access.addr r.Access.addr;
    Alcotest.(check int) "word sized" Layout.word w.Access.size
  | _ -> Alcotest.fail "expected two accesses"

let test_instr_sink () =
  let ctx = Ctx.create () in
  let n = ref 0 in
  Ctx.observe ctx ~on_instr:(fun k -> n := !n + k)
    ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n:_ -> ())
    ();
  Ctx.flops ctx 10;
  Ctx.flops ctx 5;
  Ctx.flush_refs ctx;
  Alcotest.(check int) "instructions forwarded" 15 !n

let test_batched_delivery_program_order () =
  (* instruction counts and references must reach an observer in program
     order, with the batch boundaries invisible *)
  let ctx = Ctx.create ~batch_capacity:2 () in
  let events = ref [] in
  Ctx.observe ctx
    ~on_instr:(fun k -> events := `Instr k :: !events)
    ~on_refs:(fun b ~obj_ids:_ ~first ~n ->
      for i = first to first + n - 1 do
        events := `Ref (Nvsc_memtrace.Sink.Batch.addr b i) :: !events
      done)
    ();
  let g = Farray.global ctx ~name:"g" 8 in
  let addr i = Nvsc_memtrace.Layout.global_base + (i * Layout.word) in
  Ctx.flops ctx 3;
  ignore (Farray.get g 0);
  ignore (Farray.get g 1);
  Ctx.flops ctx 2;
  ignore (Farray.get g 2);
  (* capacity-2 batches have flushed mid-stream; the tail needs a flush *)
  Ctx.flops ctx 4;
  Ctx.flush_refs ctx;
  Alcotest.(check bool) "program order preserved" true
    (List.rev !events
    = [ `Instr 3; `Ref (addr 0); `Ref (addr 1); `Instr 2; `Ref (addr 2);
        `Instr 4 ]);
  let p = Ctx.pipeline_stats ctx in
  Alcotest.(check int) "refs" 3 p.Ctx.refs;
  Alcotest.(check int) "capacity flushes" 1 p.Ctx.capacity_flushes;
  Alcotest.(check bool) "boundary flushes" true (p.Ctx.boundary_flushes >= 1)

let test_bulk_helpers () =
  let ctx = Ctx.create () in
  let a = Farray.global ctx ~name:"a" 8 in
  let b = Farray.global ctx ~name:"b" 8 in
  Farray.init ctx a float_of_int;
  Alcotest.(check (float 1e-12)) "init" 5. (Farray.peek a 5);
  Farray.copy_into ctx ~src:a ~dst:b;
  Alcotest.(check (float 1e-12)) "copy" 7. (Farray.peek b 7);
  Alcotest.(check (float 1e-12)) "sum" 28. (Farray.sum ctx a);
  Farray.fill ctx b 1.;
  Alcotest.(check (float 1e-12)) "fill" 1. (Farray.peek b 3)

let test_phase_iteration_mapping () =
  let ctx = Ctx.create () in
  let g = Farray.global ctx ~name:"g" 2 in
  let obj = Option.get (Farray.obj g) in
  Ctx.set_phase ctx Mem_object.Pre;
  ignore (Farray.get g 0);
  Ctx.set_phase ctx (Mem_object.Main 1);
  ignore (Farray.get g 0);
  Ctx.set_phase ctx Mem_object.Post;
  ignore (Farray.get g 0);
  let c = Ctx.counters ctx in
  Alcotest.(check int) "pre+post in iter 0" 2
    (Counters.reads c ~obj_id:obj.Mem_object.id ~iter:0);
  Alcotest.(check int) "main in iter 1" 1
    (Counters.reads c ~obj_id:obj.Mem_object.id ~iter:1)

let test_global_overlay_merges () =
  let ctx = Ctx.create () in
  let base = Farray.global ctx ~name:"com_block" 100 in
  let view =
    Farray.global_overlay ctx ~name:"com_view" ~over:base ~offset_words:50 50
  in
  (* the registry now holds one union object with the combined name *)
  let objs = Nvsc_memtrace.Object_registry.objects (Ctx.registry ctx) in
  Alcotest.(check int) "one merged object" 1 (List.length objs);
  let merged = List.hd objs in
  Alcotest.(check bool) "combined name" true
    (String.length merged.Mem_object.name > String.length "com_block");
  Alcotest.(check int) "full span" (100 * Layout.word) merged.Mem_object.size;
  (* accesses through either view attribute to the merged object *)
  Ctx.set_phase ctx (Mem_object.Main 1);
  ignore (Farray.get base 0);
  Farray.set view 0 1.0;
  let c = Ctx.counters ctx in
  Alcotest.(check int) "read attributed" 1
    (Counters.reads c ~obj_id:merged.Mem_object.id ~iter:1);
  Alcotest.(check int) "write attributed" 1
    (Counters.writes c ~obj_id:merged.Mem_object.id ~iter:1);
  Alcotest.(check int) "nothing unattributed" 0 (Ctx.unattributed ctx)

let test_global_overlay_bounds () =
  let ctx = Ctx.create () in
  let base = Farray.global ctx ~name:"b" 10 in
  Alcotest.(check bool) "beyond base rejected" true
    (try
       ignore
         (Farray.global_overlay ctx ~name:"v" ~over:base ~offset_words:8 10);
       false
     with Invalid_argument _ -> true)

let test_free_validation () =
  let ctx = Ctx.create () in
  let g = Farray.global ctx ~name:"g" 2 in
  Alcotest.(check bool) "cannot free global" true
    (try
       Farray.free ctx g;
       false
     with Invalid_argument _ -> true)

let test_batch_capacity_invariance () =
  (* a real workload must produce identical per-iteration tallies, grand
     totals, and sink-visible reference streams whatever the batch
     capacity; the pipeline counters must satisfy their invariants *)
  let iterations = 2 in
  let run capacity =
    let ctx = Ctx.create ~batch_capacity:capacity () in
    let count = ref 0 and digest = ref 0 in
    Ctx.add_sink ctx
      (Nvsc_memtrace.Sink.create (fun b ~first ~n ->
           for i = first to first + n - 1 do
             incr count;
             (* order-sensitive stream digest *)
             digest :=
               (!digest * 31) + (Nvsc_memtrace.Sink.Batch.addr b i land 0xffff)
           done));
    let (module A : Nvsc_apps.Workload.APP) =
      Option.get (Nvsc_apps.Apps.find "gtc")
    in
    A.run ~scale:0.05 ctx ~iterations;
    Ctx.flush_refs ctx;
    let p = Ctx.pipeline_stats ctx in
    (* invariants: counters agree with what the sink saw *)
    Alcotest.(check int)
      (Printf.sprintf "refs = delivered (capacity %d)" capacity)
      !count p.Ctx.refs;
    Alcotest.(check int)
      (Printf.sprintf "sink pushed (capacity %d)" capacity)
      !count
      (List.fold_left
         (fun acc (s : Nvsc_memtrace.Sink.stats) -> acc + s.pushed)
         0 p.Ctx.sinks);
    Alcotest.(check int)
      (Printf.sprintf "batches = flushes (capacity %d)" capacity)
      p.Ctx.batches
      (p.Ctx.capacity_flushes + p.Ctx.boundary_flushes);
    if capacity = 1 then
      Alcotest.(check int) "capacity 1: every ref flushes" !count
        p.Ctx.capacity_flushes;
    let tallies =
      List.init (iterations + 1) (fun i -> Ctx.fast_tally ctx ~iter:i)
    in
    (!count, !digest, tallies, Ctx.fast_tally_totals ctx,
     Ctx.total_references ctx, Ctx.unattributed ctx)
  in
  let reference = run 65536 in
  List.iter
    (fun capacity ->
      let r = run capacity in
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d matches capacity 65536" capacity)
        true (r = reference))
    [ 1; 7 ]

(* Emission allocates nothing: with cross-module inlining (the release
   build dune-workspace selects) [Farray.get] returns its float unboxed
   and [Farray.set] takes it unboxed, and the emission path itself
   allocates nowhere.  Under [--profile dev] every module is compiled
   [-opaque], each pair boxes two floats (4 words), and this test fails —
   by design: it pins the shipped build mode. *)
let test_emission_allocates_nothing () =
  let ctx = Ctx.create () in
  let seen = ref 0 in
  Ctx.add_sink ctx
    (Nvsc_memtrace.Sink.create ~name:"count" (fun _ ~first:_ ~n ->
         seen := !seen + n));
  let a = Farray.global ctx ~name:"a" 1024 in
  Ctx.set_phase ctx (Mem_object.Main 1);
  let pairs = 1_000_000 in
  let before = Gc.minor_words () in
  for k = 0 to pairs - 1 do
    let i = k land 1023 in
    Farray.set a i (Farray.get a i +. 1.)
  done;
  let words = Gc.minor_words () -. before in
  Ctx.flush_refs ctx;
  Alcotest.(check int) "every reference delivered" (2 * pairs) !seen;
  let per_pair = words /. float_of_int pairs in
  if per_pair >= 0.01 then
    Alcotest.failf
      "%.3f minor words per get+set pair (limit 0.01); was this built \
       with --profile dev?"
      per_pair

(* The fast tallies are derived from the counters (see [Ctx.Tally]); this
   reference classifies every delivered reference by address instead, as
   the paper's fast stack method does, and charges it to the phase it was
   delivered under.  All six apps, plain, sampled, and with redzones plus
   stray references (a redzone word, a stack-window address outside every
   frame, an unmapped address) so the unattributed path is exercised. *)
let test_fast_tally_matches_reference () =
  let iterations = 2 in
  let check (module A : Nvsc_apps.Workload.APP) mode =
    let label = Printf.sprintf "%s/%s" A.name mode in
    let ctx =
      Ctx.create ~redzone_words:(if mode = "redzones" then 2 else 0) ()
    in
    if mode = "sampled" then Ctx.set_sampling ctx ~period:7 ~sample_length:3;
    let tallies = Array.make_matrix (iterations + 1) 4 0 in
    let unattributed = ref 0 in
    Ctx.observe ctx ~on_refs:(fun b ~obj_ids ~first ~n ->
        let iter =
          match Ctx.phase ctx with
          | Mem_object.Main i -> i
          | Mem_object.Pre | Mem_object.Post -> 0
        in
        for i = first to first + n - 1 do
          let addr = Nvsc_memtrace.Sink.Batch.addr b i in
          let k =
            (if Layout.classify addr = Some Layout.Stack then 0 else 2)
            +
            match Nvsc_memtrace.Sink.Batch.op b i with
            | Access.Read -> 0
            | Access.Write -> 1
          in
          tallies.(iter).(k) <- tallies.(iter).(k) + 1;
          if obj_ids.(i) < 0 then incr unattributed
        done)
      ();
    A.run ~scale:0.05 ctx ~iterations;
    if mode = "redzones" then begin
      Ctx.set_phase ctx (Mem_object.Main 1);
      let o =
        List.hd (Nvsc_memtrace.Object_registry.objects (Ctx.registry ctx))
      in
      let redzone = o.Mem_object.base + o.Mem_object.size in
      let stray = Layout.stack_top - Layout.word in
      (* 1, 2, 3 and 4 strays of the four kinds, so a tally charged to
         the wrong region or direction cannot go unnoticed *)
      Ctx.read_addr ctx ~addr:stray;
      for _ = 1 to 2 do Ctx.write_addr ctx ~addr:stray done;
      for _ = 1 to 3 do Ctx.read_addr ctx ~addr:redzone done;
      for _ = 1 to 4 do Ctx.write_addr ctx ~addr:0 done;
      Ctx.set_phase ctx Mem_object.Post
    end;
    Ctx.flush_refs ctx;
    Alcotest.(check int) (label ^ ": unattributed") !unattributed
      (Ctx.unattributed ctx);
    if mode = "redzones" then
      Alcotest.(check bool) (label ^ ": strays unattributed") true
        (!unattributed >= 10);
    let tuple (t : Ctx.fast_tally) =
      [ t.stack_reads; t.stack_writes; t.other_reads; t.other_writes ]
    in
    for iter = 0 to iterations do
      Alcotest.(check (list int))
        (Printf.sprintf "%s: iteration %d" label iter)
        (Array.to_list tallies.(iter))
        (tuple (Ctx.fast_tally ctx ~iter))
    done;
    Alcotest.(check (list int)) (label ^ ": totals")
      (List.init 4 (fun k ->
           Array.fold_left (fun acc row -> acc + row.(k)) 0 tallies))
      (tuple (Ctx.fast_tally_totals ctx))
  in
  List.iter
    (fun app -> List.iter (check app) [ "plain"; "sampled"; "redzones" ])
    Nvsc_apps.Apps.extended

let suite =
  [
    Alcotest.test_case "global allocation" `Quick test_global_allocation;
    Alcotest.test_case "access attribution" `Quick test_access_attribution;
    Alcotest.test_case "value roundtrip" `Quick test_values_roundtrip;
    Alcotest.test_case "heap signature reuse" `Quick test_heap_signature_reuse;
    Alcotest.test_case "heap live collision" `Quick test_heap_live_collision;
    Alcotest.test_case "stack frames attribution" `Quick
      test_stack_frames_and_attribution;
    Alcotest.test_case "stack object identity" `Quick
      test_stack_object_identity_across_calls;
    Alcotest.test_case "frame exhaustion" `Quick test_frame_exhaustion;
    Alcotest.test_case "frame pop on exception" `Quick
      test_frame_pop_on_exception;
    Alcotest.test_case "fast tally" `Quick test_fast_tally;
    Alcotest.test_case "fast tally matches address classification" `Quick
      test_fast_tally_matches_reference;
    Alcotest.test_case "emission allocates nothing" `Quick
      test_emission_allocates_nothing;
    Alcotest.test_case "sink stream" `Quick test_sink_stream;
    Alcotest.test_case "instruction sink" `Quick test_instr_sink;
    Alcotest.test_case "batched delivery program order" `Quick
      test_batched_delivery_program_order;
    Alcotest.test_case "batch capacity invariance" `Quick
      test_batch_capacity_invariance;
    Alcotest.test_case "bulk helpers" `Quick test_bulk_helpers;
    Alcotest.test_case "phase->iteration mapping" `Quick
      test_phase_iteration_mapping;
    Alcotest.test_case "free validation" `Quick test_free_validation;
    Alcotest.test_case "common-block overlay merges" `Quick
      test_global_overlay_merges;
    Alcotest.test_case "overlay bounds" `Quick test_global_overlay_bounds;
  ]
