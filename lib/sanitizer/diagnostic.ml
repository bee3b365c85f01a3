module Mem_object = Nvsc_memtrace.Mem_object

type severity = Error | Warning

type klass =
  | Out_of_bounds
  | Straddle
  | Use_after_free
  | Stale_stack
  | Unattributed
  | Uninit_read
  | Overlap
  | Unbalanced_frames
  | Leak
  | Config
  | Unflushed_commit
  | Flush_race
  | Torn_checkpoint
  | Epoch_unbalanced
  | Redundant_flush
  | Useless_fence
  | Persist_write_heavy

type occurrence = { phase : Mem_object.phase; index : int }
type source = { file : string; chunk : int; record : int }

type finding = {
  severity : severity;
  klass : klass;
  owner : string;
  detail : string;
  count : int;
  first : occurrence option;
  source : source option;
}

type report = finding list

let klass_to_string = function
  | Out_of_bounds -> "out-of-bounds"
  | Straddle -> "straddle"
  | Use_after_free -> "use-after-free"
  | Stale_stack -> "stale-stack"
  | Unattributed -> "unattributed"
  | Uninit_read -> "uninit-read"
  | Overlap -> "overlap"
  | Unbalanced_frames -> "unbalanced-frames"
  | Leak -> "leak"
  | Config -> "config"
  | Unflushed_commit -> "unflushed-at-commit"
  | Flush_race -> "store-during-flush"
  | Torn_checkpoint -> "torn-checkpoint"
  | Epoch_unbalanced -> "epoch-unbalanced"
  | Redundant_flush -> "redundant-flush"
  | Useless_fence -> "useless-fence"
  | Persist_write_heavy -> "persist-write-heavy"

(* rank used only to order the report deterministically *)
let klass_rank = function
  | Config -> 0
  | Out_of_bounds -> 1
  | Straddle -> 2
  | Use_after_free -> 3
  | Stale_stack -> 4
  | Uninit_read -> 5
  | Unattributed -> 6
  | Overlap -> 7
  | Unbalanced_frames -> 8
  | Leak -> 9
  | Unflushed_commit -> 10
  | Flush_race -> 11
  | Torn_checkpoint -> 12
  | Epoch_unbalanced -> 13
  | Redundant_flush -> 14
  | Useless_fence -> 15
  | Persist_write_heavy -> 16

let severity_rank = function Error -> 0 | Warning -> 1

let default_severity = function
  | Leak | Redundant_flush | Useless_fence | Persist_write_heavy -> Warning
  | _ -> Error

let compare_findings a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = compare (klass_rank a.klass) (klass_rank b.klass) in
    if c <> 0 then c
    else
      let c = compare a.owner b.owner in
      if c <> 0 then c else compare a.detail b.detail

let sort_report r = List.sort compare_findings r
let merge a b = sort_report (a @ b)
let is_clean r = r = []

let count_severity sev r =
  List.fold_left
    (fun acc f -> if f.severity = sev then acc + f.count else acc)
    0 r

let errors = count_severity Error
let warnings = count_severity Warning

let pp_phase fmt = function
  | Mem_object.Pre -> Format.pp_print_string fmt "pre"
  | Mem_object.Post -> Format.pp_print_string fmt "post"
  | Mem_object.Main i -> Format.fprintf fmt "main[%d]" i

let pp_finding fmt f =
  Format.fprintf fmt "%s %-17s %-24s x%-6d %s"
    (match f.severity with Error -> "error  " | Warning -> "warning")
    (klass_to_string f.klass)
    f.owner f.count f.detail;
  (match f.first with
  | None -> ()
  | Some { phase; index } ->
    Format.fprintf fmt " (first: %a ref %d)" pp_phase phase index);
  match f.source with
  | None -> ()
  | Some { file; chunk; record } ->
    (* grep-able file:chunk:record, like a source location *)
    Format.fprintf fmt " [%s:%d:%d]" file chunk record

let pp_report fmt r =
  if is_clean r then Format.fprintf fmt "clean: no diagnostics@."
  else begin
    List.iter (fun f -> Format.fprintf fmt "%a@." pp_finding f) r;
    Format.fprintf fmt "%d error(s), %d warning(s) in %d class(es)@."
      (errors r) (warnings r)
      (List.length
         (List.sort_uniq compare (List.map (fun f -> f.klass) r)))
  end

(* --- aggregation ------------------------------------------------------- *)

module Collector = struct
  type entry = {
    mutable count : int;
    finding : finding; (* count field ignored; frozen first occurrence *)
  }

  type t = { tbl : (string, entry) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 32 }

  let add t ?severity ?occurrence ?source klass ~owner ~detail =
    let key = klass_to_string klass ^ "\x00" ^ owner in
    match Hashtbl.find_opt t.tbl key with
    | Some e -> e.count <- e.count + 1
    | None ->
      let severity =
        match severity with Some s -> s | None -> default_severity klass
      in
      Hashtbl.add t.tbl key
        {
          count = 1;
          finding =
            {
              severity;
              klass;
              owner;
              detail;
              count = 1;
              first = occurrence;
              source;
            };
        }

  let report t =
    Hashtbl.fold
      (fun _ e acc -> { e.finding with count = e.count } :: acc)
      t.tbl []
    |> sort_report
end
