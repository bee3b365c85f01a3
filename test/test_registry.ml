module R = Nvsc_memtrace.Object_registry
module Mem_object = Nvsc_memtrace.Mem_object
module Layout = Nvsc_memtrace.Layout

let heap_obj ~id ~base ~size name =
  Mem_object.make ~id ~name ~kind:Layout.Heap ~base ~size ()

let global_obj ~id ~base ~size name =
  Mem_object.make ~id ~name ~kind:Layout.Global ~base ~size ()

let test_lookup_hit_miss () =
  let r = R.create () in
  let o = R.register r (heap_obj ~id:1 ~base:Layout.heap_base ~size:128 "h") in
  Alcotest.(check bool) "hit at base" true (R.lookup r Layout.heap_base = Some o);
  Alcotest.(check bool) "hit at last byte" true
    (R.lookup r (Layout.heap_base + 127) = Some o);
  Alcotest.(check bool) "miss past end" true
    (R.lookup r (Layout.heap_base + 128) = None)

let test_lookup_equals_linear_scan_prop =
  QCheck.Test.make ~name:"registry lookup = linear scan" ~count:50
    QCheck.(
      pair (int_range 1 60)
        (list_of_size Gen.(int_range 1 400) (int_range 0 (1 lsl 22))))
    (fun (nobj, probes) ->
      let r = R.create ~bucket_bits:10 () in
      let rng = Nvsc_util.Rng.of_int nobj in
      let objs = ref [] in
      let next_base = ref Layout.heap_base in
      for i = 1 to nobj do
        let size = 8 * (1 + Nvsc_util.Rng.int rng 512) in
        let gap = 8 * Nvsc_util.Rng.int rng 64 in
        let o = heap_obj ~id:i ~base:(!next_base + gap) ~size "x" in
        next_base := !next_base + gap + size;
        objs := R.register r o :: !objs
      done;
      List.for_all
        (fun p ->
          let addr = Layout.heap_base + p in
          let linear =
            List.find_opt (fun o -> Mem_object.contains o addr) !objs
          in
          let fast = R.lookup r addr in
          match (linear, fast) with
          | None, None -> true
          | Some a, Some b -> a.Mem_object.id = b.Mem_object.id
          | _ -> false)
        probes)

let test_dead_vs_live_preference () =
  let r = R.create () in
  let dead = R.register r (heap_obj ~id:1 ~base:Layout.heap_base ~size:64 "old") in
  R.deallocate r dead;
  (* a new live object reuses the same address range *)
  let live = R.register r (heap_obj ~id:2 ~base:Layout.heap_base ~size:64 "new") in
  (match R.lookup r Layout.heap_base with
  | Some o -> Alcotest.(check int) "live preferred" live.Mem_object.id o.Mem_object.id
  | None -> Alcotest.fail "expected a hit");
  (* when only the dead object covers an address, it is still returned *)
  R.deallocate r live;
  match R.lookup r Layout.heap_base with
  | Some o -> Alcotest.(check bool) "dead fallback" true (not o.Mem_object.live)
  | None -> Alcotest.fail "expected dead fallback"

let test_signature_roundtrip () =
  let r = R.create () in
  let o = R.register r (heap_obj ~id:7 ~base:Layout.heap_base ~size:64 "site_a") in
  Alcotest.(check bool) "found" true (R.find_by_signature r "site_a" = Some o);
  Alcotest.(check bool) "missing" true (R.find_by_signature r "nope" = None);
  R.deallocate r o;
  R.revive r o;
  Alcotest.(check bool) "revive restores live" true o.Mem_object.live

let test_global_merge () =
  let r = R.create () in
  let base = Layout.global_base in
  let _ = R.register r (global_obj ~id:1 ~base ~size:100 "c1") in
  let merged = R.register r (global_obj ~id:2 ~base:(base + 50) ~size:100 "c2") in
  Alcotest.(check int) "one object" 1 (R.object_count r);
  Alcotest.(check int) "hull size" 150 merged.Mem_object.size;
  (match R.lookup r (base + 120) with
  | Some o -> Alcotest.(check int) "merged covers union" merged.Mem_object.id o.Mem_object.id
  | None -> Alcotest.fail "lookup in merged range");
  (* merging is transitive across several pre-existing blocks *)
  let far = R.register r (global_obj ~id:3 ~base:(base + 400) ~size:50 "c3") in
  let bridge =
    R.register r (global_obj ~id:4 ~base:(base + 100) ~size:350 "c4")
  in
  Alcotest.(check int) "all merged" 1 (R.object_count r);
  Alcotest.(check bool) "bridge covers everything" true
    (Mem_object.contains bridge base
    && Mem_object.contains bridge (base + 449));
  ignore far

let test_disjoint_globals_not_merged () =
  let r = R.create () in
  let base = Layout.global_base in
  let _ = R.register r (global_obj ~id:1 ~base ~size:100 "a") in
  let _ = R.register r (global_obj ~id:2 ~base:(base + 100) ~size:100 "b") in
  Alcotest.(check int) "two objects" 2 (R.object_count r)

let test_rebalance_triggers () =
  let r = R.create ~bucket_bits:20 () in
  let bits0 = R.bucket_bits r in
  (* cram many small objects into one 1 MiB bucket *)
  for i = 0 to 199 do
    ignore
      (R.register r (heap_obj ~id:i ~base:(Layout.heap_base + (i * 16)) ~size:16 "s"))
  done;
  Alcotest.(check bool) "bucket width narrowed" true (R.bucket_bits r < bits0);
  (* lookups still correct after rebuild *)
  match R.lookup r (Layout.heap_base + (57 * 16)) with
  | Some o -> Alcotest.(check int) "correct object" 57 o.Mem_object.id
  | None -> Alcotest.fail "lookup after rebalance"

let test_objects_listing () =
  let r = R.create () in
  let a = R.register r (heap_obj ~id:1 ~base:Layout.heap_base ~size:8 "a") in
  let b = R.register r (heap_obj ~id:2 ~base:(Layout.heap_base + 8) ~size:8 "b") in
  Alcotest.(check (list int)) "registration order"
    [ a.Mem_object.id; b.Mem_object.id ]
    (List.map (fun (o : Mem_object.t) -> o.id) (R.objects r))

let suite =
  [
    Alcotest.test_case "lookup hit/miss" `Quick test_lookup_hit_miss;
    QCheck_alcotest.to_alcotest test_lookup_equals_linear_scan_prop;
    Alcotest.test_case "dead vs live preference" `Quick
      test_dead_vs_live_preference;
    Alcotest.test_case "signature roundtrip" `Quick test_signature_roundtrip;
    Alcotest.test_case "common-block merge" `Quick test_global_merge;
    Alcotest.test_case "disjoint globals kept" `Quick
      test_disjoint_globals_not_merged;
    Alcotest.test_case "dynamic rebalance" `Quick test_rebalance_triggers;
    Alcotest.test_case "objects listing" `Quick test_objects_listing;
  ]
