(* compare.exe PARENT.json CHANGE.json — one row per workload and metric
   between two nvbench result documents (Ledger.compare).  End-to-end
   metrics get a verdict; per-layer metrics only show their change.
   Exits 1 on any regression or rise in a workload's failed fraction. *)

open Nvbench_lib

let load path =
  try
    Ledger.of_json
      (Nvsc_util.Json.of_string
         (In_channel.with_open_text path In_channel.input_all))
  with Nvsc_util.Json.Parse_error msg | Sys_error msg ->
    Printf.eprintf "compare: %s: %s\n" path msg;
    exit 2

let () =
  let parent, change =
    match Sys.argv with
    | [| _; a; b |] -> (load a, load b)
    | _ ->
      prerr_endline "usage: compare.exe PARENT.json CHANGE.json";
      exit 2
  in
  let lines, bad = Ledger.compare ~parent ~change in
  Printf.printf "%-18s %-32s %12s %12s %8s  %s\n" "workload" "metric" "parent"
    "change" "delta" "verdict";
  List.iter
    (fun (l : Ledger.line) ->
      let delta =
        if l.parent = 0. then ""
        else Printf.sprintf "%+.1f%%" (100. *. (l.change -. l.parent) /. Float.abs l.parent)
      in
      Printf.printf "%-18s %-32s %12.5g %12.5g %8s  %s\n" l.workload l.metric
        l.parent l.change delta l.verdict)
    lines;
  exit (if bad then 1 else 0)
