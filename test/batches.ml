(* Test fixtures are written as [Access.t] lists; the stream layer reads
   batch slices.  These helpers convert between the two. *)

module Access = Nvsc_memtrace.Access
module Batch = Nvsc_memtrace.Sink.Batch
module Sink = Nvsc_memtrace.Sink
module Trace_log = Nvsc_memtrace.Trace_log

let get batch i =
  { Access.addr = Batch.addr batch i; size = Batch.size batch i;
    op = Batch.op batch i }

(* The records of a batch slice, in order. *)
let slice batch ~first ~n = List.init n (fun k -> get batch (first + k))

let log accesses =
  let t = Trace_log.create () in
  List.iter
    (fun (a : Access.t) ->
      Trace_log.record_raw t ~addr:a.addr ~size:a.size ~op:a.op)
    accesses;
  t

(* The log's records, in order, read chunk by chunk. *)
let to_list log =
  let acc = ref [] in
  Trace_log.iter_slices log (fun batch ~first ~n ->
      acc := List.rev_append (slice batch ~first ~n) !acc);
  List.rev !acc

(* Hand the list to a sink consumer as one slice. *)
let feed consume accesses =
  let n = List.length accesses in
  let batch = Batch.create (max 1 n) in
  List.iteri
    (fun i (a : Access.t) -> Batch.set batch i ~addr:a.addr ~size:a.size ~op:a.op)
    accesses;
  consume batch ~first:0 ~n

(* A sink that conses every delivered record onto [acc] (newest first). *)
let collect ?capacity acc =
  Sink.create ?capacity (fun batch ~first ~n ->
      acc := List.rev_append (slice batch ~first ~n) !acc)
