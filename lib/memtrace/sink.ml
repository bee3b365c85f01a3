(* Debug-checked mode: when on, the hot-path accessors fall back to
   bounds-checked reads and slice hand-offs are validated, so a malformed
   [first]/[n] is caught instead of silently reading stale array tails.
   Enabled by the test harness and by the NVSC-San lint pipeline.

   An [Atomic.t], not a [ref]: the sweep engine runs scavenger cells on
   worker domains, and this is the one top-level mutable flag they all
   reach.  Toggling it is a process-wide mode switch (a sanitized run may
   slow concurrent unsanitized cells down, never corrupt them). *)
let debug_checks = Atomic.make false
let set_debug_checks v = Atomic.set debug_checks v
let checks_enabled () = Atomic.get debug_checks

module Batch = struct
  (* Bigarray storage: elements live outside the OCaml heap, so a filled
     batch can be handed by reference to N worker domains with zero
     copying and no GC interaction — the minor collector never scans or
     moves the payload.  The concrete kind/layout is statically known at
     every use site, so [Array1.unsafe_get] compiles to a direct load. *)
  type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type op_buf =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    mutable addrs : int_buf;
    mutable sizes : int_buf;
    mutable ops : op_buf;
  }

  let make_int_buf n =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill a 0;
    a

  let make_op_buf n =
    let a = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
    Bigarray.Array1.fill a '\000';
    a

  let create capacity =
    if capacity <= 0 then invalid_arg "Sink.Batch.create: capacity";
    {
      addrs = make_int_buf capacity;
      sizes = make_int_buf capacity;
      ops = make_op_buf capacity;
    }

  let capacity b = Bigarray.Array1.dim b.addrs

  (* Buffer views for hot loops: consumers hoist these once per delivered
     slice and index with [Array1.unsafe_get], exactly as the previous
     int-array representation hoisted the record fields.  The buffers stay
     valid for the duration of one consumer call; [ensure] may replace
     them between calls. *)
  let[@inline] addrs b = b.addrs
  let[@inline] sizes b = b.sizes
  let[@inline] ops b = b.ops

  let ensure b want =
    let cap = Bigarray.Array1.dim b.addrs in
    if want > cap then begin
      let cap' = ref (2 * cap) in
      while want > !cap' do
        cap' := 2 * !cap'
      done;
      let addrs = make_int_buf !cap' in
      let sizes = make_int_buf !cap' in
      let ops = make_op_buf !cap' in
      Bigarray.Array1.blit b.addrs (Bigarray.Array1.sub addrs 0 cap);
      Bigarray.Array1.blit b.sizes (Bigarray.Array1.sub sizes 0 cap);
      Bigarray.Array1.blit b.ops (Bigarray.Array1.sub ops 0 cap);
      b.addrs <- addrs;
      b.sizes <- sizes;
      b.ops <- ops
    end

  let check_slice b ~first ~n =
    let cap = Bigarray.Array1.dim b.addrs in
    if first < 0 || n < 0 || first + n > cap then
      invalid_arg
        (Printf.sprintf "Sink.Batch: slice first=%d n=%d outside capacity %d"
           first n cap)

  (* Hot-path accessors: callers index within [0, capacity) by
     construction (consumers receive a validated [first]/[n] slice;
     producers flush before the batch fills), so elide bounds checks —
     unless the debug-checked mode is on. *)
  let[@inline] addr b i =
    if Atomic.get debug_checks then Bigarray.Array1.get b.addrs i
    else Bigarray.Array1.unsafe_get b.addrs i

  let[@inline] size b i =
    if Atomic.get debug_checks then Bigarray.Array1.get b.sizes i
    else Bigarray.Array1.unsafe_get b.sizes i

  let[@inline] is_write b i =
    (if Atomic.get debug_checks then Bigarray.Array1.get b.ops i
     else Bigarray.Array1.unsafe_get b.ops i)
    <> '\000'

  let[@inline] op b i = if is_write b i then Access.Write else Access.Read
  let[@inline] op_char = function
    | Access.Read -> '\000'
    | Access.Write -> '\001'

  let[@inline] set b i ~addr ~size ~op =
    if Atomic.get debug_checks then begin
      Bigarray.Array1.set b.addrs i addr;
      Bigarray.Array1.set b.sizes i size;
      Bigarray.Array1.set b.ops i (op_char op)
    end
    else begin
      Bigarray.Array1.unsafe_set b.addrs i addr;
      Bigarray.Array1.unsafe_set b.sizes i size;
      Bigarray.Array1.unsafe_set b.ops i (op_char op)
    end

  let[@inline] set_addr_op b i ~addr ~op =
    if Atomic.get debug_checks then begin
      Bigarray.Array1.set b.addrs i addr;
      Bigarray.Array1.set b.ops i (op_char op)
    end
    else begin
      Bigarray.Array1.unsafe_set b.addrs i addr;
      Bigarray.Array1.unsafe_set b.ops i (op_char op)
    end

  let fill_sizes b size =
    Bigarray.Array1.fill b.sizes size

  let blit src ~src_pos dst ~dst_pos ~n =
    if n > 0 then begin
      Bigarray.Array1.blit
        (Bigarray.Array1.sub src.addrs src_pos n)
        (Bigarray.Array1.sub dst.addrs dst_pos n);
      Bigarray.Array1.blit
        (Bigarray.Array1.sub src.sizes src_pos n)
        (Bigarray.Array1.sub dst.sizes dst_pos n);
      Bigarray.Array1.blit
        (Bigarray.Array1.sub src.ops src_pos n)
        (Bigarray.Array1.sub dst.ops dst_pos n)
    end

  let access b i = { Access.addr = addr b i; size = size b i; op = op b i }

  let iter b ~first ~n f =
    for i = first to first + n - 1 do
      f (access b i)
    done
end

type consumer = Batch.t -> first:int -> n:int -> unit

type t = {
  name : string;
  consumer : consumer;
  batch : Batch.t;
  mutable len : int;
  mutable pushed : int;
  mutable batches : int;
  mutable capacity_flushes : int;
  mutable boundary_flushes : int;
}

let default_capacity = 65536

let create ?(name = "sink") ?(capacity = default_capacity) consumer =
  {
    name;
    consumer;
    batch = Batch.create capacity;
    len = 0;
    pushed = 0;
    batches = 0;
    capacity_flushes = 0;
    boundary_flushes = 0;
  }

let of_fn ?name ?capacity f =
  create ?name ?capacity (fun b ~first ~n -> Batch.iter b ~first ~n f)

let null () = create ~name:"null" (fun _ ~first:_ ~n:_ -> ())

let flush t =
  if t.len > 0 then begin
    let n = t.len in
    t.len <- 0;
    t.batches <- t.batches + 1;
    t.boundary_flushes <- t.boundary_flushes + 1;
    t.consumer t.batch ~first:0 ~n
  end

let push t ~addr ~size ~op =
  let i = t.len in
  Batch.set t.batch i ~addr ~size ~op;
  t.len <- i + 1;
  t.pushed <- t.pushed + 1;
  if t.len = Batch.capacity t.batch then begin
    let n = t.len in
    t.len <- 0;
    t.batches <- t.batches + 1;
    t.capacity_flushes <- t.capacity_flushes + 1;
    t.consumer t.batch ~first:0 ~n
  end

let push_access t (a : Access.t) = push t ~addr:a.addr ~size:a.size ~op:a.op

let deliver t batch ~first ~n =
  if Atomic.get debug_checks then Batch.check_slice batch ~first ~n;
  if n > 0 then begin
    flush t;
    t.pushed <- t.pushed + n;
    t.batches <- t.batches + 1;
    t.consumer batch ~first ~n
  end

let name t = t.name
let pushed t = t.pushed
let batches t = t.batches
let capacity_flushes t = t.capacity_flushes
let boundary_flushes t = t.boundary_flushes
let flushes t = t.capacity_flushes + t.boundary_flushes

type stats = {
  name : string;
  pushed : int;
  batches : int;
  capacity_flushes : int;
  boundary_flushes : int;
}

let stats (t : t) =
  {
    name = t.name;
    pushed = t.pushed;
    batches = t.batches;
    capacity_flushes = t.capacity_flushes;
    boundary_flushes = t.boundary_flushes;
  }
