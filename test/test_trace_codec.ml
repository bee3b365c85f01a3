(* NVT binary trace format: codec round-trips, record/replay fidelity,
   out-of-core streaming and damage rejection (ROADMAP item 1). *)

module Trace_codec = Nvsc_memtrace.Trace_codec
module Access = Nvsc_memtrace.Access
module Persist = Nvsc_memtrace.Persist
module Mem_object = Nvsc_memtrace.Mem_object
module Sink = Nvsc_memtrace.Sink
module Trace_log = Nvsc_memtrace.Trace_log
module Trace_file = Nvsc_memtrace.Trace_file
module Trace_run = Nvsc_core.Trace_run
module Scavenger = Nvsc_core.Scavenger

let with_tmp f =
  let path = Filename.temp_file "nvsc-nvt" ".nvt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let to_string f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let meta ?(scale = 1.0) ?(iterations = 2) () =
  {
    Trace_codec.app = "synthetic";
    description = "synthetic event stream";
    input_description = "n/a";
    paper_footprint_mb = 1.0;
    scale;
    iterations;
    batch_capacity = Sink.default_capacity;
  }

let find_app name = Option.get (Nvsc_apps.Apps.find name)

(* --- record/replay fidelity --------------------------------------------- *)

(* the analyze-report composition every replayed analysis feeds; rendering
   both results through it is the strongest cheap byte-identity check *)
let render_report (r : Scavenger.result) =
  to_string (fun fmt ->
      Nvsc_core.Stack_analysis.pp_summary_table fmt
        [ Nvsc_core.Stack_analysis.summarize r ];
      Nvsc_core.Object_analysis.pp_report fmt
        (Nvsc_core.Object_analysis.analyze r);
      Format.fprintf fmt "untouched %s@."
        (Nvsc_util.Table.cell_pct
           (Nvsc_core.Usage_variance.untouched_in_main_fraction r));
      Nvsc_core.Usage_variance.pp_variance fmt
        (Nvsc_core.Usage_variance.variance r))

let accesses log =
  let acc = ref [] in
  Trace_log.replay log (fun a -> acc := a :: !acc);
  List.rev !acc

let test_replay_matches_live () =
  List.iter
    (fun name ->
      with_tmp @@ fun path ->
      let app = find_app name in
      let summary =
        Trace_run.record ~chunk_capacity:4096 ~scale:0.1 ~iterations:2 ~path
          app
      in
      let live =
        Scavenger.run
          Scavenger.Config.(
            default |> with_scale 0.1 |> with_iterations 2 |> with_trace true)
          app
      in
      let rep = Trace_run.replay path in
      Alcotest.(check string)
        (name ^ ": rendered report") (render_report live) (render_report rep);
      Alcotest.(check int)
        (name ^ ": footprint") live.footprint_bytes rep.footprint_bytes;
      Alcotest.(check int)
        (name ^ ": main refs") live.total_main_refs rep.total_main_refs;
      Alcotest.(check int)
        (name ^ ": unattributed") live.unattributed rep.unattributed;
      Alcotest.(check bool)
        (name ^ ": fast tallies") true
        (live.fast_tallies = rep.fast_tallies);
      Alcotest.(check bool)
        (name ^ ": miss rates") true
        (live.l1_miss_rate = rep.l1_miss_rate
        && live.l2_miss_rate = rep.l2_miss_rate);
      Alcotest.(check bool)
        (name ^ ": main-memory trace") true
        (accesses (Option.get live.mem_trace)
        = accesses (Option.get rep.mem_trace));
      Alcotest.(check int)
        (name ^ ": pipeline refs")
        live.pipeline.Nvsc_appkit.Ctx.refs summary.Trace_codec.refs;
      Alcotest.(check int)
        (name ^ ": reader refs") summary.Trace_codec.refs
        rep.pipeline.Nvsc_appkit.Ctx.refs)
    Nvsc_apps.Apps.names

let test_perf_replay_matches_live () =
  with_tmp @@ fun path ->
  let app = find_app "gtc" in
  ignore (Trace_run.record ~scale:0.1 ~iterations:1 ~path app);
  let live =
    Nvsc_cpusim.Sensitivity.run
      ~replay:(Nvsc_core.Experiment.perf_replay ~scale:0.1 app)
      ()
  in
  let rep =
    Nvsc_cpusim.Sensitivity.run ~replay:(Trace_run.perf_replay path) ()
  in
  Alcotest.(check bool) "sensitivity points identical" true (live = rep)

let test_digest_keys_on_content () =
  with_tmp @@ fun p1 ->
  with_tmp @@ fun p2 ->
  with_tmp @@ fun p3 ->
  let app = find_app "minimd" in
  let s1 = Trace_run.record ~scale:0.1 ~iterations:1 ~path:p1 app in
  let s2 = Trace_run.record ~scale:0.1 ~iterations:1 ~path:p2 app in
  let s3 = Trace_run.record ~scale:0.2 ~iterations:1 ~path:p3 app in
  Alcotest.(check string)
    "same run, same digest" s1.Trace_codec.digest s2.Trace_codec.digest;
  Alcotest.(check bool)
    "different scale, different digest" true
    (s1.Trace_codec.digest <> s3.Trace_codec.digest);
  let m, digest = Trace_run.info p1 in
  Alcotest.(check string) "info digest" s1.Trace_codec.digest digest;
  Alcotest.(check string) "info app" "minimd" m.Trace_codec.app;
  Alcotest.(check string)
    "fingerprint" "minimd|scale=0.1|iterations=1" (Trace_codec.fingerprint m)

(* --- codec property: any event stream at any chunk capacity -------------- *)

type event =
  | Ref of int * int * Access.op * int
  | Instr of int
  | Phase of Mem_object.phase
  | P of Persist.t

let gen_events =
  QCheck.Gen.(
    let gen_persist =
      oneof
        [
          map (fun obj_id -> Persist.Declare { obj_id }) (int_bound 40);
          ( let* obj_id = int_bound 40 in
            let* off = int_bound 4096 in
            let* len = int_range 1 4096 in
            return (Persist.Flush { obj_id; off; len }) );
          return Persist.Fence;
          ( let* checkpoint = bool in
            let* label = oneofl [ "ckpt"; "epoch \xe2\x9c\x93"; "" ] in
            let* b = bool in
            return
              (if b then Persist.Epoch_begin { label; checkpoint }
               else Persist.Epoch_commit { label; checkpoint }) );
        ]
    in
    let gen_event =
      frequency
        [
          ( 8,
            let* addr = int_bound 0xFFFF_FFFF in
            let* size = int_range 1 4096 in
            let* w = bool in
            let* obj_id = int_range (-1) 40 in
            return
              (Ref (addr, size, (if w then Access.Write else Access.Read),
                    obj_id)) );
          (1, map (fun n -> Instr (n + 1)) (int_bound 10_000));
          ( 1,
            map
              (fun p -> Phase p)
              (oneofl
                 [ Mem_object.Pre; Mem_object.Post; Mem_object.Main 1;
                   Mem_object.Main 7 ]) );
          (1, map (fun p -> P p) gen_persist);
        ]
    in
    list_size (int_bound 400) gen_event)

let roundtrip_ok ~chunk_capacity ~mode events =
  with_tmp @@ fun path ->
  let w = Trace_codec.Writer.create ~chunk_capacity ~path ~meta:(meta ()) () in
  List.iter
    (function
      | Ref (addr, size, op, obj_id) ->
        Trace_codec.Writer.add_ref w ~addr ~size ~op ~obj_id
      | Instr n -> Trace_codec.Writer.add_instr w n
      | Phase p -> Trace_codec.Writer.add_phase w p
      | P p -> Trace_codec.Writer.add_persist w p)
    events;
  let s = Trace_codec.Writer.finish w () in
  let refs =
    List.length (List.filter (function Ref _ -> true | _ -> false) events)
  in
  let writes =
    List.length
      (List.filter (function Ref (_, _, Access.Write, _) -> true | _ -> false)
         events)
  in
  let r = Trace_codec.Reader.open_ ~mode path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let got = ref [] in
  Trace_codec.stream r
    ~on_phase:(fun p -> got := Phase p :: !got)
    ~on_instr:(fun n -> got := Instr n :: !got)
    ~on_persist:(fun p -> got := P p :: !got)
    ~on_refs:(fun batch ~obj_ids ~first ~n ->
      for i = first to first + n - 1 do
        got :=
          Ref
            ( Sink.Batch.addr batch i,
              Sink.Batch.size batch i,
              Sink.Batch.op batch i,
              obj_ids.(i) )
          :: !got
      done)
    ();
  s.Trace_codec.refs = refs
  && s.Trace_codec.writes = writes
  && s.Trace_codec.reads = refs - writes
  && Trace_codec.Reader.refs r = refs
  && List.rev !got = events

let codec_roundtrip =
  QCheck.Test.make
    ~name:"codec round-trips any event stream at chunk capacities 1/7/65536"
    ~count:30 (QCheck.make gen_events) (fun events ->
      List.for_all
        (fun chunk_capacity ->
          (* both chunk I/O paths must decode every stream identically *)
          List.for_all
            (fun mode -> roundtrip_ok ~chunk_capacity ~mode events)
            [ Trace_codec.Buffered; Trace_codec.Mmap ])
        [ 1; 7; 65536 ])

let test_empty_trace () =
  with_tmp @@ fun path ->
  let w = Trace_codec.Writer.create ~path ~meta:(meta ()) () in
  let s = Trace_codec.Writer.finish w () in
  Alcotest.(check int) "refs" 0 s.Trace_codec.refs;
  Alcotest.(check int) "chunks" 0 s.Trace_codec.chunks;
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let fired = ref false in
  Trace_codec.stream r ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n:_ ->
      fired := true) ();
  Alcotest.(check bool) "no callbacks" false !fired

(* --- out-of-core streaming ----------------------------------------------- *)

let test_streaming_constant_memory () =
  with_tmp @@ fun path ->
  let chunk_capacity = 1024 in
  let total = 400_000 in
  let w = Trace_codec.Writer.create ~chunk_capacity ~path ~meta:(meta ()) () in
  let rng = ref 123456789 in
  for i = 0 to total - 1 do
    rng := ((!rng * 1103515245) + 12345) land 0x3FFF_FFFF;
    Trace_codec.Writer.add_ref w ~addr:!rng ~size:8
      ~op:(if i land 3 = 0 then Access.Write else Access.Read)
      ~obj_id:(i mod 64)
  done;
  let s = Trace_codec.Writer.finish w () in
  Alcotest.(check int) "chunks" 391 s.Trace_codec.chunks;
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  Gc.full_major ();
  let baseline = (Gc.stat ()).Gc.live_words in
  let max_live = ref 0 in
  let seen = ref 0 in
  let slices = ref 0 in
  Trace_codec.stream r
    ~on_refs:(fun _batch ~obj_ids:_ ~first:_ ~n ->
      seen := !seen + n;
      incr slices;
      if !slices mod 64 = 0 then begin
        Gc.full_major ();
        max_live := max !max_live (Gc.stat ()).Gc.live_words
      end)
    ();
  Alcotest.(check int) "all refs delivered" total !seen;
  (* peak live heap must be bounded by the chunk (a few thousand words),
     never the 400k-reference trace (>= 1.2M words if materialized) *)
  Alcotest.(check bool)
    (Printf.sprintf "live heap bounded (baseline %d, peak %d)" baseline
       !max_live)
    true
    (!max_live - baseline < 200_000)

(* --- damage rejection ----------------------------------------------------- *)

let u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let u64le s off = u32le s off lor (u32le s (off + 4) lsl 32)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  Bytes.to_string b

let expect_error ~substr f =
  match f () with
  | _ -> Alcotest.fail ("expected Trace_codec.Error with " ^ substr)
  | exception Trace_codec.Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S in %S" substr msg)
      true (contains msg substr)

let test_rejects_damage () =
  with_tmp @@ fun path ->
  let w =
    Trace_codec.Writer.create ~chunk_capacity:8 ~path ~meta:(meta ()) ()
  in
  for i = 0 to 99 do
    Trace_codec.Writer.add_ref w ~addr:(i * 64) ~size:8
      ~op:(if i land 1 = 0 then Access.Read else Access.Write)
      ~obj_id:(i mod 3)
  done;
  ignore (Trace_codec.Writer.finish w ());
  let good = read_file path in
  with_tmp @@ fun bad ->
  (* foreign magic *)
  write_file bad (flip good 0);
  expect_error ~substr:"bad magic" (fun () -> Trace_codec.Reader.open_ bad);
  (* future version *)
  write_file bad (flip good 8);
  expect_error ~substr:"unsupported NVT version" (fun () ->
      Trace_codec.Reader.open_ bad);
  (* truncation loses the trailer *)
  write_file bad (String.sub good 0 (String.length good - 10));
  expect_error ~substr:"truncated" (fun () -> Trace_codec.Reader.open_ bad);
  (* a flipped trailer byte fails the trailer digest *)
  let trailer_off = u64le good (String.length good - 16) in
  write_file bad (flip good (trailer_off + 1 + 4 + 16 + 1));
  expect_error ~substr:"corrupt trailer" (fun () ->
      Trace_codec.Reader.open_ bad);
  (* a flipped chunk byte opens fine (the trailer is intact) but fails the
     per-chunk digest during streaming *)
  let hlen = u32le good 10 in
  let first_payload = 14 + hlen + 1 + 4 + 16 in
  write_file bad (flip good (first_payload + 1));
  let r = Trace_codec.Reader.open_ bad in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  expect_error ~substr:"corrupt chunk" (fun () ->
      Trace_codec.stream r
        ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n:_ -> ())
        ());
  (* every error names the file *)
  expect_error ~substr:bad (fun () ->
      Trace_codec.stream r
        ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n:_ -> ())
        ())

(* --- mmap reader ---------------------------------------------------------- *)

let stream_events ~mode path =
  let r = Trace_codec.Reader.open_ ~mode path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let got = ref [] in
  Trace_codec.stream r
    ~on_phase:(fun p -> got := Phase p :: !got)
    ~on_instr:(fun n -> got := Instr n :: !got)
    ~on_persist:(fun p -> got := P p :: !got)
    ~on_refs:(fun batch ~obj_ids ~first ~n ->
      for i = first to first + n - 1 do
        got :=
          Ref
            ( Sink.Batch.addr batch i,
              Sink.Batch.size batch i,
              Sink.Batch.op batch i,
              obj_ids.(i) )
          :: !got
      done)
    ();
  (Trace_codec.Reader.mmapped r, List.rev !got)

let test_mmap_reader_modes () =
  with_tmp @@ fun path ->
  let w =
    Trace_codec.Writer.create ~chunk_capacity:8 ~path ~meta:(meta ()) ()
  in
  Trace_codec.Writer.add_phase w (Mem_object.Main 1);
  for i = 0 to 99 do
    if i mod 17 = 0 then Trace_codec.Writer.add_instr w (i + 1);
    if i = 40 then
      Trace_codec.Writer.add_persist w
        (Persist.Epoch_begin { label = "mm"; checkpoint = false });
    Trace_codec.Writer.add_ref w ~addr:(i * 64) ~size:8
      ~op:(if i land 1 = 0 then Access.Read else Access.Write)
      ~obj_id:(i mod 3)
  done;
  ignore (Trace_codec.Writer.finish w ());
  let mm_b, ev_b = stream_events ~mode:Trace_codec.Buffered path in
  let mm_m, ev_m = stream_events ~mode:Trace_codec.Mmap path in
  let mm_a, ev_a = stream_events ~mode:Trace_codec.Auto path in
  Alcotest.(check bool) "buffered is not mapped" false mm_b;
  Alcotest.(check bool) "mmap is mapped" true mm_m;
  Alcotest.(check bool) "auto maps on this platform" true mm_a;
  Alcotest.(check int) "events decoded" 108 (List.length ev_b);
  Alcotest.(check bool) "mmap decodes identically" true (ev_m = ev_b);
  Alcotest.(check bool) "auto decodes identically" true (ev_a = ev_b);
  (* a flipped chunk byte fails the per-chunk digest on both paths *)
  let good = read_file path in
  with_tmp @@ fun bad ->
  let hlen = u32le good 10 in
  write_file bad (flip good (14 + hlen + 1 + 4 + 16 + 3));
  List.iter
    (fun mode ->
      expect_error ~substr:"corrupt chunk" (fun () ->
          ignore (stream_events ~mode bad)))
    [ Trace_codec.Buffered; Trace_codec.Mmap ]

(* --- version compatibility ------------------------------------------------ *)

let test_v1_writer_reader_compat () =
  with_tmp @@ fun path ->
  let w =
    Trace_codec.Writer.create ~version:1 ~chunk_capacity:8 ~path
      ~meta:(meta ()) ()
  in
  for i = 0 to 31 do
    Trace_codec.Writer.add_ref w ~addr:(i * 64) ~size:8
      ~op:(if i land 1 = 0 then Access.Read else Access.Write)
      ~obj_id:(i mod 3)
  done;
  (* a v1 writer has no wire representation for persist events: refusing
     is the version policy, not silent omission *)
  expect_error ~substr:"persist events need NVT version >= 2" (fun () ->
      Trace_codec.Writer.add_persist w Persist.Fence);
  let s = Trace_codec.Writer.finish w () in
  Alcotest.(check int) "refs recorded" 32 s.Trace_codec.refs;
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  Alcotest.(check int) "declared version" 1 (Trace_codec.Reader.version r);
  let seen = ref 0 in
  let persist_fired = ref false in
  Trace_codec.stream r
    ~on_persist:(fun _ -> persist_fired := true)
    ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n -> seen := !seen + n)
    ();
  Alcotest.(check int) "v1 trace still streams" 32 !seen;
  Alcotest.(check bool) "no persist events in a v1 trace" false !persist_fired

let test_persist_token_needs_v2 () =
  with_tmp @@ fun path ->
  let w =
    Trace_codec.Writer.create ~chunk_capacity:8 ~path ~meta:(meta ()) ()
  in
  Trace_codec.Writer.add_ref w ~addr:0 ~size:8 ~op:Access.Read ~obj_id:0;
  Trace_codec.Writer.add_persist w Persist.Fence;
  ignore (Trace_codec.Writer.finish w ());
  let good = read_file path in
  with_tmp @@ fun bad ->
  (* rewrite the declared version to 1 (the u16 after the magic is not
     digest-covered): the persist token inside is now illegal *)
  let b = Bytes.of_string good in
  Bytes.set b 8 '\001';
  write_file bad (Bytes.to_string b);
  let r = Trace_codec.Reader.open_ bad in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  Alcotest.(check int) "downgraded header" 1 (Trace_codec.Reader.version r);
  expect_error ~substr:"persist token in a v1 trace" (fun () ->
      Trace_codec.stream r
        ~on_persist:(fun _ -> ())
        ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n:_ -> ())
        ())

(* --- sweep-from-trace ----------------------------------------------------- *)

let fresh_dir () =
  let base = Filename.temp_file "nvsc-nvt-cache" "" in
  Sys.remove base;
  base ^ ".d"

let test_sweep_from_trace_cache () =
  with_tmp @@ fun path ->
  let app = find_app "gtc" in
  ignore (Trace_run.record ~scale:0.1 ~iterations:2 ~path app);
  let matrix =
    match
      Nvsc_sweep.Matrix.make ~apps:[ "gtc" ]
        ~kinds:[ Nvsc_sweep.Cell.Objects; Power; Place ]
        ~scale:0.1 ~iterations:2 ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let dir = fresh_dir () in
  let render (outcomes, _) =
    to_string (fun fmt -> Nvsc_sweep.Engine.pp_outcomes fmt outcomes)
  in
  let cold =
    Nvsc_sweep.Engine.run ~jobs:1
      ~cache:(Nvsc_sweep.Cache.create ~dir ())
      ~trace:path matrix
  in
  let warm =
    Nvsc_sweep.Engine.run ~jobs:1
      ~cache:(Nvsc_sweep.Cache.create ~dir ())
      ~trace:path matrix
  in
  Alcotest.(check int) "cold misses" 3 (snd cold).Nvsc_sweep.Engine.misses;
  Alcotest.(check int) "warm misses" 0 (snd warm).Nvsc_sweep.Engine.misses;
  Alcotest.(check int) "warm hits" 3 (snd warm).Nvsc_sweep.Engine.hits;
  Alcotest.(check string) "warm report identical" (render cold) (render warm)

let test_pinned_digest_must_match () =
  with_tmp @@ fun path ->
  let app = find_app "minimd" in
  ignore (Trace_run.record ~scale:0.1 ~iterations:1 ~path app);
  let spec =
    {
      Nvsc_sweep.Cell.app = "minimd";
      kind = Nvsc_sweep.Cell.Objects;
      scale = 0.1;
      iterations = 1;
      tech = None;
      trace_digest = Some (String.make 32 'f');
    }
  in
  Alcotest.(check bool)
    "foreign digest rejected" true
    (match Nvsc_sweep.Cell.execute ~trace:path spec with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "pinned digest without trace rejected" true
    (match Nvsc_sweep.Cell.execute spec with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- trace_file: size threading and error context ------------------------ *)

let test_trace_file_size_and_errors () =
  (match Trace_file.parse_record ~size:32 "0x40 P_MEM_RD 0" with
  | Some a -> Alcotest.(check int) "size threaded" 32 a.Access.size
  | None -> Alcotest.fail "expected record");
  (match Trace_file.parse_record "0x40 P_MEM_WR 0" with
  | Some a -> Alcotest.(check int) "default size" 64 a.Access.size
  | None -> Alcotest.fail "expected record");
  let path = Filename.temp_file "nvsc-bad-trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "0x40 P_MEM_RD 0\nbogus line here\n";
      (match Trace_file.load path with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure msg ->
        Alcotest.(check bool)
          ("path in " ^ msg) true (contains msg path);
        Alcotest.(check bool)
          ("line number in " ^ msg) true (contains msg "(line 2)"));
      (* a negative address would decode to a negative rank or bank *)
      List.iter
        (fun addr ->
          write_file path ("0x40 P_MEM_RD 0\n" ^ addr ^ " READ 1\n");
          match Trace_file.load path with
          | _ -> Alcotest.fail ("accepted address " ^ addr)
          | exception Failure msg ->
            Alcotest.(check bool)
              ("negative address named in " ^ msg) true
              (contains msg "negative address" && contains msg "(line 2)"))
        [ "-0x100000"; "-0x20000"; "-1"; "0x7fffffffffffffff" ];
      write_file path "0x40 P_MEM_RD 0\n";
      let log = Trace_file.load ~size:16 path in
      Alcotest.(check int)
        "load threads size" 16 (Trace_log.get log 0).Access.size)

(* --- golden fixture: the on-disk byte format is pinned ------------------- *)

(* One committed v2 trace (test/golden/mini.nvt, built by
   test/golden/gen_mini.ml) covering every token kind.  Decoding it and
   re-encoding the decoded stream byte-for-byte proves the codec is
   host-independent: all fixed-width fields are explicit little-endian,
   so the Bigarray-backed batch storage (native-endian in memory) never
   leaks into the format, on any endianness or word size. *)

type golden_event =
  | G_ref of int * int * Access.op * int  (* addr, size, op, obj_id *)
  | G_phase of Mem_object.phase
  | G_instr of int
  | G_persist of Persist.t

let golden_digest = "9455ba2202cb87db6fc9013078e23b83"

let test_golden_fixture () =
  let path =
    (* set by the dune action; the fallback serves [dune exec] from the
       repo root *)
    Option.value
      (Sys.getenv_opt "GOLDEN_NVT")
      ~default:"test/golden/mini.nvt"
  in
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r)
  @@ fun () ->
  Alcotest.(check int) "version" 2 (Trace_codec.Reader.version r);
  Alcotest.(check int) "refs" 7 (Trace_codec.Reader.refs r);
  Alcotest.(check int) "reads" 3 (Trace_codec.Reader.reads r);
  Alcotest.(check int) "writes" 4 (Trace_codec.Reader.writes r);
  Alcotest.(check int) "chunks" 2 (Trace_codec.Reader.chunks r);
  Alcotest.(check string)
    "pinned digest" golden_digest (Trace_codec.Reader.digest r);
  let m = Trace_codec.Reader.meta r in
  Alcotest.(check string) "app" "golden-mini" m.Trace_codec.app;
  Alcotest.(check int) "chunk capacity" 4 (Trace_codec.Reader.chunk_capacity r);
  (* decode every token in file order *)
  let events = ref [] in
  let push e = events := e :: !events in
  Trace_codec.stream r
    ~on_phase:(fun p -> push (G_phase p))
    ~on_instr:(fun n -> push (G_instr n))
    ~on_persist:(fun p -> push (G_persist p))
    ~on_refs:(fun batch ~obj_ids ~first ~n ->
      for i = first to first + n - 1 do
        push
          (G_ref
             ( Sink.Batch.addr batch i,
               Sink.Batch.size batch i,
               Sink.Batch.op batch i,
               obj_ids.(i) ))
      done)
    ();
  let events = List.rev !events in
  Alcotest.(check int) "event count" 17 (List.length events);
  (match List.nth events 1 with
  | G_ref (4096, 8, Access.Write, 0) -> ()
  | _ -> Alcotest.fail "first ref decoded wrong");
  (match List.nth events 16 with
  | G_ref (4096, 8, Access.Read, -1) -> ()
  | _ -> Alcotest.fail "unattributed trailing ref decoded wrong");
  (match List.nth events 6 with
  | G_persist (Persist.Epoch_begin { label = "step"; checkpoint = true }) -> ()
  | _ -> Alcotest.fail "epoch-begin token decoded wrong");
  (* re-encode the decoded stream: bytes must match the fixture exactly *)
  let objs = Trace_codec.Reader.objects r in
  let resolve id =
    List.find_opt (fun (o : Mem_object.t) -> o.Mem_object.id = id) objs
  in
  with_tmp @@ fun out ->
  let w =
    Trace_codec.Writer.create
      ~chunk_capacity:(Trace_codec.Reader.chunk_capacity r)
      ~resolve ~path:out ~meta:m ()
  in
  List.iter
    (function
      | G_ref (addr, size, op, obj_id) ->
        Trace_codec.Writer.add_ref w ~addr ~size ~op ~obj_id
      | G_phase p -> Trace_codec.Writer.add_phase w p
      | G_instr n -> Trace_codec.Writer.add_instr w n
      | G_persist p -> Trace_codec.Writer.add_persist w p)
    events;
  let s =
    Trace_codec.Writer.finish w ~objects:objs
      ~stack_objects:(Trace_codec.Reader.stack_objects r)
      ()
  in
  Alcotest.(check string) "re-encoded digest" golden_digest s.Trace_codec.digest;
  Alcotest.(check bool)
    "re-encoded bytes identical" true
    (read_file out = read_file path)

let suite =
  [
    Alcotest.test_case "record/replay identical for all apps" `Quick
      test_replay_matches_live;
    Alcotest.test_case "perf replay matches live sensitivity" `Quick
      test_perf_replay_matches_live;
    Alcotest.test_case "digest keys on trace content" `Quick
      test_digest_keys_on_content;
    Alcotest.test_case "empty trace round-trips" `Quick test_empty_trace;
    Alcotest.test_case "streaming is constant-memory" `Quick
      test_streaming_constant_memory;
    Alcotest.test_case "damaged files are rejected by name" `Quick
      test_rejects_damage;
    Alcotest.test_case "mmap and buffered readers decode identically" `Quick
      test_mmap_reader_modes;
    Alcotest.test_case "v1 traces write and read back" `Quick
      test_v1_writer_reader_compat;
    Alcotest.test_case "persist token in a v1 trace is corrupt" `Quick
      test_persist_token_needs_v2;
    Alcotest.test_case "sweep from trace: warm cache has zero misses" `Quick
      test_sweep_from_trace_cache;
    Alcotest.test_case "sweep from trace: pinned digest must match" `Quick
      test_pinned_digest_must_match;
    Alcotest.test_case "trace_file threads size and names the file" `Quick
      test_trace_file_size_and_errors;
    Alcotest.test_case "golden fixture decodes and re-encodes byte-identically"
      `Quick test_golden_fixture;
    QCheck_alcotest.to_alcotest codec_roundtrip;
  ]
