(* Micro-benchmark suite for the allocation-free simulation kernels
   (DESIGN.md "Kernel fast paths"): cache lookup hit/miss costs, the
   hierarchy filter stage on three stream shapes plus the captured gtc
   reference stream — each against the pre-optimization oracle in
   test/oracle/ — the DRAM controller submit path, counter recording, and
   the end-to-end scavenger pipeline.

   Results go to a machine-readable JSON file (default BENCH_kernels.json;
   CI's perf-smoke job runs [--quick] and uploads it).  Timings use
   [Sys.time] best-of-N: the suite is single-threaded and each measured
   body runs long enough that clock granularity is noise.  Speedup ratios
   are measured interleaved (optimized / oracle alternating) so frequency
   drift hits both sides equally. *)

module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Trace_log = Nvsc_memtrace.Trace_log
module Trace_gen = Nvsc_memtrace.Trace_gen
module Cache = Nvsc_cachesim.Cache
module Cache_params = Nvsc_cachesim.Cache_params
module Hierarchy = Nvsc_cachesim.Hierarchy
module OH = Nvsc_oracle.Oracle_hierarchy

(* --- timing ------------------------------------------------------------ *)

let time f =
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

let best_of reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let dt = time f in
    if dt < !best then best := dt
  done;
  !best

(* Interleave the two sides rep by rep and report each side's best. *)
let best_of_pair reps f g =
  ignore (f ());
  ignore (g ());
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to reps do
    let df = time f in
    let dg = time g in
    if df < !bf then bf := df;
    if dg < !bg then bg := dg
  done;
  (!bf, !bg)

(* --- results ----------------------------------------------------------- *)

type result = { name : string; unit_ : string; value : float; extra : (string * float) list }

let results : result list ref = ref []

let report ?(extra = []) name unit_ value =
  results := { name; unit_; value; extra } :: !results;
  Printf.printf "%-28s %10.3f %s%s\n%!" name value unit_
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf "  %s=%.3f" k v) extra))

let write_json path ~quick =
  let oc = open_out path in
  let field (k, v) = Printf.sprintf "\"%s\": %.6f" k v in
  let entry r =
    String.concat ", "
      (Printf.sprintf "\"name\": \"%s\"" r.name
      :: Printf.sprintf "\"unit\": \"%s\"" r.unit_
      :: field ("value", r.value)
      :: List.map field r.extra)
  in
  Printf.fprintf oc "{\n  \"suite\": \"nvsc-kernels\",\n  \"quick\": %b,\n  \"results\": [\n%s\n  ]\n}\n"
    quick
    (String.concat ",\n"
       (List.rev_map (fun r -> "    {" ^ entry r ^ "}") !results));
  close_out oc

(* --- stream harnesses -------------------------------------------------- *)

let fill_log log gen =
  let s = Trace_log.sink log in
  ignore (Trace_gen.into gen s);
  Sink.flush s

let run_hierarchy log () =
  let h = Hierarchy.create ~sink:(Sink.null ()) () in
  let s = Sink.create ~capacity:65536 (Hierarchy.consume h) in
  Trace_log.replay_batch log s;
  Sink.flush s;
  Hierarchy.drain h

let run_oracle log () =
  let h = OH.create ~sink:(Sink.null ()) () in
  let s = Sink.create ~capacity:65536 (OH.consume h) in
  Trace_log.replay_batch log s;
  Sink.flush s;
  OH.drain h

let filter_bench ~reps name log =
  let refs = float_of_int (Trace_log.length log) in
  let opt, oracle = best_of_pair reps (run_hierarchy log) (run_oracle log) in
  report name "ns/ref"
    (opt *. 1e9 /. refs)
    ~extra:
      [
        ("oracle_ns_per_ref", oracle *. 1e9 /. refs);
        ("speedup", oracle /. opt);
        ("refs", refs);
      ]

(* --- suite ------------------------------------------------------------- *)

let run ~quick ~out =
  let reps = if quick then 3 else 7 in
  let n_refs = if quick then 200_000 else 1_000_000 in

  (* cache level: hit path (resident line, alternating read/write) *)
  let () =
    let c = Cache.create Cache_params.paper_l1d in
    ignore (Cache.write c ~line:3);
    let iters = if quick then 2_000_000 else 10_000_000 in
    let dt =
      best_of reps (fun () ->
          for _ = 1 to iters do
            ignore (Cache.read c ~line:3);
            ignore (Cache.write c ~line:3)
          done)
    in
    report "cache.hit" "ns/op" (dt *. 1e9 /. float_of_int (2 * iters))
  in

  (* cache level: miss/evict churn (streaming distinct lines) *)
  let () =
    let c = Cache.create Cache_params.paper_l1d in
    let iters = if quick then 1_000_000 else 4_000_000 in
    let dt =
      best_of reps (fun () ->
          for i = 1 to iters do
            ignore (Cache.read c ~line:(i * 7))
          done)
    in
    report "cache.miss-churn" "ns/op" (dt *. 1e9 /. float_of_int iters)
  in

  (* hierarchy filter stage on synthetic stream shapes *)
  let () =
    let log = Trace_log.create ~chunk_capacity:n_refs () in
    fill_log log
      (Trace_gen.zipf ~seed:11 ~lines:65536 ~write_fraction:0.3 ~n:n_refs ());
    filter_bench ~reps "filter.zipf" log
  in
  let () =
    let log = Trace_log.create ~chunk_capacity:n_refs () in
    fill_log log (Trace_gen.sequential ~n:n_refs ());
    filter_bench ~reps "filter.sequential" log
  in
  let () =
    let log = Trace_log.create ~chunk_capacity:n_refs () in
    fill_log log (Trace_gen.strided ~stride_lines:3 ~n:n_refs ());
    filter_bench ~reps "filter.strided" log
  in

  (* word-granular run-heavy streams, where most references hit the
     L1's MRU way in one probe.  Trace_gen's synthetics are
     line-granular — consecutive references never share a line, so runs
     never form — hence these streams are built locally: a run of word
     touches per line, the line chosen per shape, with writes mixed into
     the run tails. *)
  let coalesced_log pick =
    let log = Trace_log.create ~chunk_capacity:n_refs () in
    let i = ref 0 and k = ref 0 in
    while !i < n_refs do
      let line, len = pick !k in
      incr k;
      let len = min len (n_refs - !i) in
      for j = 0 to len - 1 do
        Trace_log.record_raw log
          ~addr:((line * 64) + ((j * 8) land 63))
          ~size:8
          ~op:(if (j + line) land 7 = 3 then Access.Write else Access.Read)
      done;
      i := !i + len
    done;
    log
  in
  let () =
    let lcg = ref 97 in
    let next () =
      lcg := (!lcg * 1103515245) + 12345;
      (!lcg lsr 9) land 0xFFFFFF
    in
    let log =
      coalesced_log (fun _ ->
          let r = next () in
          (* 3/4 of the runs in a 256-line hot set, zipf-flavoured *)
          let line = if r land 3 < 3 then r land 0xFF else r land 0xFFFF in
          (line, 2 + (r land 15)))
    in
    filter_bench ~reps "filter.coalesced-zipf" log
  in
  let () =
    filter_bench ~reps "filter.coalesced-sequential"
      (coalesced_log (fun k -> (k land 0xFFFFF, 8)))
  in
  let () =
    let log = coalesced_log (fun k -> ((k * 3) land 0xFFFFF, 8)) in
    filter_bench ~reps "filter.coalesced-strided" log
  in

  (* the captured gtc reference stream: what the pipeline's filter stage
     actually consumes (word-granular, object-interleaved) *)
  let gtc_log =
    let log = Trace_log.create ~chunk_capacity:2_000_000 () in
    let ctx = Nvsc_appkit.Ctx.create () in
    Nvsc_appkit.Ctx.add_sink ctx (Trace_log.sink ~name:"gtc-capture" log);
    let (module A : Nvsc_apps.Workload.APP) =
      Option.get (Nvsc_apps.Apps.find "gtc")
    in
    (* even --quick captures a few hundred thousand references so the
       filter-stage number is not dominated by fixed per-run cost
       (cache-array creation and the end-of-trace drain walk) *)
    let scale = if quick then 0.2 else 0.3 in
    let iterations = if quick then 2 else 3 in
    A.run ~scale ctx ~iterations;
    Nvsc_appkit.Ctx.flush_refs ctx;
    log
  in
  let () = filter_bench ~reps "filter.gtc-stream" gtc_log in

  (* DRAM controller submit path on a line-granular trace, then the
     [stats] call that ends every technology's replay *)
  let () =
    let n = if quick then 100_000 else 400_000 in
    let tech = Nvsc_nvram.Technology.get Nvsc_nvram.Technology.DDR3 in
    let stream () =
      let c = Nvsc_dramsim.Controller.create ~tech () in
      for i = 0 to n - 1 do
        Nvsc_dramsim.Controller.submit_ref c ~addr:(i * 64 * 17)
          ~op:(if i land 3 = 0 then Access.Write else Access.Read)
      done;
      Nvsc_dramsim.Controller.flush c;
      c
    in
    let dt = best_of reps (fun () -> ignore (stream ())) in
    report "controller.submit" "ns/txn" (dt *. 1e9 /. float_of_int n);
    let c = stream () in
    let dt =
      best_of reps (fun () -> ignore (Nvsc_dramsim.Controller.stats c))
    in
    report "controller.stats" "ms" (dt *. 1e3)
  in

  (* counter recording (dense per-object slots) *)
  let () =
    let c = Nvsc_memtrace.Counters.create () in
    Nvsc_memtrace.Counters.set_iteration c 1;
    let iters = if quick then 2_000_000 else 10_000_000 in
    let dt =
      best_of reps (fun () ->
          for i = 1 to iters do
            Nvsc_memtrace.Counters.record c ~obj_id:(i land 7)
              ~op:(if i land 1 = 0 then Access.Read else Access.Write)
          done)
    in
    report "counters.record" "ns/op" (dt *. 1e9 /. float_of_int iters)
  in

  (* end-to-end: the scavenger pipeline on gtc at scale 0.1, one
     iteration *)
  let () =
    let app = Option.get (Nvsc_apps.Apps.find "gtc") in
    let config =
      Nvsc_core.Scavenger.Config.(
        default |> with_scale 0.1 |> with_iterations 1)
    in
    let dt =
      best_of (if quick then 5 else 9) (fun () ->
          ignore (Nvsc_core.Scavenger.run config app))
    in
    report "pipeline.scavenger-gtc" "ms" (dt *. 1e3)
  in

  write_json out ~quick;
  Printf.printf "wrote %s\n" out

let () =
  let quick = ref false and out = ref "BENCH_kernels.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "kernels: unknown argument %s (usage: [--quick] [--out FILE])\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  run ~quick:!quick ~out:!out
