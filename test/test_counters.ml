module C = Nvsc_memtrace.Counters
module Access = Nvsc_memtrace.Access

let test_basic_recording () =
  let c = C.create () in
  C.set_iteration c 1;
  C.record c ~obj_id:1 ~op:Access.Read;
  C.record c ~obj_id:1 ~op:Access.Read;
  C.record c ~obj_id:1 ~op:Access.Write;
  Alcotest.(check int) "reads" 2 (C.reads c ~obj_id:1 ~iter:1);
  Alcotest.(check int) "writes" 1 (C.writes c ~obj_id:1 ~iter:1);
  Alcotest.(check int) "other iter" 0 (C.reads c ~obj_id:1 ~iter:2);
  Alcotest.(check int) "other object" 0 (C.reads c ~obj_id:9 ~iter:1);
  Alcotest.(check int) "grand total" 3 (C.grand_total c)

let test_iteration_separation () =
  let c = C.create () in
  for iter = 0 to 5 do
    C.set_iteration c iter;
    C.record_n c ~obj_id:4 ~op:Access.Read ~n:(iter + 1)
  done;
  for iter = 0 to 5 do
    Alcotest.(check int)
      (Printf.sprintf "iter %d" iter)
      (iter + 1)
      (C.reads c ~obj_id:4 ~iter)
  done;
  Alcotest.(check int) "total" 21 (C.total_reads c ~obj_id:4);
  Alcotest.(check int) "max iteration" 5 (C.max_iteration c)

let test_iterations_touched () =
  let c = C.create () in
  C.set_iteration c 0;
  C.record c ~obj_id:2 ~op:Access.Write;
  C.set_iteration c 3;
  C.record c ~obj_id:2 ~op:Access.Read;
  Alcotest.(check (list int)) "touched" [ 0; 3 ] (C.iterations_touched c ~obj_id:2);
  Alcotest.(check bool) "in main loop" true (C.touched_in_main_loop c ~obj_id:2);
  C.record c ~obj_id:5 ~op:Access.Read;
  Alcotest.(check bool) "only iter 3" true (C.touched_in_main_loop c ~obj_id:5)

let test_pre_post_only () =
  let c = C.create () in
  C.set_iteration c 0;
  C.record c ~obj_id:8 ~op:Access.Read;
  Alcotest.(check bool) "not in main" false (C.touched_in_main_loop c ~obj_id:8)

let test_record_n_zero () =
  let c = C.create () in
  C.record_n c ~obj_id:1 ~op:Access.Read ~n:0;
  Alcotest.(check int) "nothing recorded" 0 (C.grand_total c);
  Alcotest.(check (list int)) "no objects" [] (C.tracked_objects c)

let test_invalid () =
  let c = C.create () in
  Alcotest.check_raises "negative iteration"
    (Invalid_argument "Counters.set_iteration: negative iteration") (fun () ->
      C.set_iteration c (-1));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Counters.record_n: negative count") (fun () ->
      C.record_n c ~obj_id:1 ~op:Access.Read ~n:(-1))

let test_tracked_objects_sorted () =
  let c = C.create () in
  List.iter
    (fun id -> C.record c ~obj_id:id ~op:Access.Write)
    [ 5; 1; 9; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 9 ] (C.tracked_objects c)

let conservation_prop =
  QCheck.Test.make ~name:"per-iteration counts sum to totals" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 100) (pair (int_range 0 9) bool))
    (fun events ->
      let c = C.create () in
      List.iteri
        (fun i (obj_id, is_read) ->
          C.set_iteration c (i mod 7);
          C.record c ~obj_id
            ~op:(if is_read then Access.Read else Access.Write))
        events;
      List.for_all
        (fun obj_id ->
          let sum = ref 0 in
          for iter = 0 to C.max_iteration c do
            sum := !sum + C.reads c ~obj_id ~iter + C.writes c ~obj_id ~iter
          done;
          !sum = C.total_reads c ~obj_id + C.total_writes c ~obj_id)
        (C.tracked_objects c)
      && C.grand_total c = List.length events)

(* Differential against the per-object implementation the flat planes
   replaced ([test/oracle]): random record / record_n / set_iteration
   sequences that grow both ids (past the initial plane width) and
   iterations, including the rejected negative cases.  Every query must
   agree, and each operation must raise the same [Invalid_argument] or
   none. *)
module O = Nvsc_oracle.Oracle_counters

type op =
  | Record of int * bool
  | Record_n of int * bool * int
  | Set_iteration of int

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun id r -> Record (id, r)) (int_range (-2) 300) bool);
        ( 3,
          map3
            (fun id r n -> Record_n (id, r, n))
            (int_range (-2) 300) bool (int_range (-1) 5) );
        (1, map (fun i -> Set_iteration i) (int_range (-1) 20));
      ])

let show_op = function
  | Record (id, r) -> Printf.sprintf "record %d %b" id r
  | Record_n (id, r, n) -> Printf.sprintf "record_n %d %b %d" id r n
  | Set_iteration i -> Printf.sprintf "set_iteration %d" i

let outcome f =
  match f () with () -> None | exception Invalid_argument m -> Some m

let access r = if r then Access.Read else Access.Write

let apply_both c o = function
  | Record (obj_id, r) ->
    ( outcome (fun () -> C.record c ~obj_id ~op:(access r)),
      outcome (fun () -> O.record o ~obj_id ~op:(access r)) )
  | Record_n (obj_id, r, n) ->
    ( outcome (fun () -> C.record_n c ~obj_id ~op:(access r) ~n),
      outcome (fun () -> O.record_n o ~obj_id ~op:(access r) ~n) )
  | Set_iteration i ->
    ( outcome (fun () -> C.set_iteration c i),
      outcome (fun () -> O.set_iteration o i) )

let queries_agree c o =
  let ids = List.init 320 (fun i -> i - 3) in
  let iters = List.init (O.max_iteration o + 3) Fun.id in
  let per_iteration f =
    List.map
      (fun iter ->
        List.fold_left
          (fun acc obj_id -> acc + f o ~obj_id ~iter)
          0 (O.tracked_objects o))
      iters
  in
  C.iteration c = O.iteration o
  && C.max_iteration c = O.max_iteration o
  && C.grand_total c = O.grand_total o
  && C.tracked_objects c = O.tracked_objects o
  && List.map (fun iter -> C.iteration_reads c ~iter) iters
     = per_iteration O.reads
  && List.map (fun iter -> C.iteration_writes c ~iter) iters
     = per_iteration O.writes
  && List.for_all
       (fun obj_id ->
         C.total_reads c ~obj_id = O.total_reads o ~obj_id
         && C.total_writes c ~obj_id = O.total_writes o ~obj_id
         && C.iterations_touched c ~obj_id = O.iterations_touched o ~obj_id
         && C.touched_in_main_loop c ~obj_id = O.touched_in_main_loop o ~obj_id
         && List.for_all
              (fun iter ->
                C.reads c ~obj_id ~iter = O.reads o ~obj_id ~iter
                && C.writes c ~obj_id ~iter = O.writes o ~obj_id ~iter)
              iters)
       ids

let differential_prop =
  QCheck.Test.make ~name:"flat planes match the per-object oracle" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 400) gen_op))
    (fun ops ->
      let c = C.create () and o = O.create () in
      List.for_all
        (fun op ->
          let a, b = apply_both c o op in
          a = b)
        ops
      && queries_agree c o)

let suite =
  [
    Alcotest.test_case "basic recording" `Quick test_basic_recording;
    Alcotest.test_case "iteration separation" `Quick test_iteration_separation;
    Alcotest.test_case "iterations touched" `Quick test_iterations_touched;
    Alcotest.test_case "pre/post only" `Quick test_pre_post_only;
    Alcotest.test_case "record_n zero" `Quick test_record_n_zero;
    Alcotest.test_case "invalid arguments" `Quick test_invalid;
    Alcotest.test_case "tracked objects sorted" `Quick
      test_tracked_objects_sorted;
    QCheck_alcotest.to_alcotest conservation_prop;
    QCheck_alcotest.to_alcotest differential_prop;
  ]
