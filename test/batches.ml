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

let to_list log =
  let batch, n = Trace_log.as_batch log in
  slice batch ~first:0 ~n

(* Hand the list to a sink consumer as one slice. *)
let feed consume accesses =
  let batch, n = Trace_log.as_batch (log accesses) in
  consume batch ~first:0 ~n

(* A sink that conses every delivered record onto [acc] (newest first). *)
let collect ?capacity acc =
  Sink.create ?capacity (fun batch ~first ~n ->
      acc := List.rev_append (slice batch ~first ~n) !acc)
