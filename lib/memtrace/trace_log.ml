type t = {
  batch : Sink.Batch.t;
  mutable len : int;
  mutable reads : int;
  mutable writes : int;
}

let create ?(initial_capacity = 4096) () =
  if initial_capacity <= 0 then invalid_arg "Trace_log.create";
  { batch = Sink.Batch.create initial_capacity; len = 0; reads = 0; writes = 0 }

let record_raw t ~addr ~size ~op =
  Sink.Batch.ensure t.batch (t.len + 1);
  Sink.Batch.set t.batch t.len ~addr ~size ~op;
  t.len <- t.len + 1;
  match op with
  | Access.Read -> t.reads <- t.reads + 1
  | Access.Write -> t.writes <- t.writes + 1

let record_batch t batch ~first ~n =
  Sink.Batch.check_slice batch ~first ~n;
  Sink.Batch.ensure t.batch (t.len + n);
  Sink.Batch.blit batch ~src_pos:first t.batch ~dst_pos:t.len ~n;
  let writes = ref 0 in
  for i = first to first + n - 1 do
    if Sink.Batch.is_write batch i then incr writes
  done;
  t.writes <- t.writes + !writes;
  t.reads <- t.reads + n - !writes;
  t.len <- t.len + n

let sink ?(name = "trace-log") t =
  Sink.create ~name (fun batch ~first ~n -> record_batch t batch ~first ~n)

let length t = t.len

let replay_batch t sink = Sink.deliver sink t.batch ~first:0 ~n:t.len

let as_batch t = (t.batch, t.len)

let reads t = t.reads
let writes t = t.writes

let clear t =
  t.len <- 0;
  t.reads <- 0;
  t.writes <- 0
