module Batch = struct
  (* Bigarray storage: elements live outside the OCaml heap, so a filled
     batch can be handed by reference to N worker domains with zero
     copying and no GC interaction — the minor collector never scans or
     moves the payload.  The concrete kind/layout is statically known at
     every use site, so [Array1.unsafe_get] compiles to a direct load. *)
  type int_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type op_buf =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = { addrs : int_buf; sizes : int_buf; ops : op_buf }

  let make_int_buf n =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill a 0;
    a

  let make_op_buf n =
    let a = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
    Bigarray.Array1.fill a '\000';
    a

  let make capacity =
    {
      addrs = make_int_buf capacity;
      sizes = make_int_buf capacity;
      ops = make_op_buf capacity;
    }

  let create capacity =
    if capacity <= 0 then invalid_arg "Sink.Batch.create: capacity";
    make capacity

  (* the one size plane is copied, not shared: the new batch's producer
     may write sizes while [b] is read on another domain *)
  let create_like b =
    let capacity = Bigarray.Array1.dim b.addrs in
    let sizes =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity
    in
    Bigarray.Array1.blit b.sizes sizes;
    { addrs = make_int_buf capacity; sizes; ops = make_op_buf capacity }

  let with_shared_sizes sizes =
    let capacity = Bigarray.Array1.dim sizes in
    if capacity <= 0 then invalid_arg "Sink.Batch.with_shared_sizes: capacity";
    { addrs = make_int_buf capacity; sizes; ops = make_op_buf capacity }

  (* the push buffer of a sink that has not been pushed to *)
  let empty = make 0

  let capacity b = Bigarray.Array1.dim b.addrs

  (* Buffer views for hot loops: consumers hoist these once per delivered
     slice and index with [Array1.unsafe_get], exactly as the previous
     int-array representation hoisted the record fields.  A batch never
     changes its buffers, so a view stays valid as long as the batch. *)
  let[@inline] addrs b = b.addrs
  let[@inline] sizes b = b.sizes
  let[@inline] ops b = b.ops

  let check_slice b ~first ~n =
    let cap = Bigarray.Array1.dim b.addrs in
    if first < 0 || n < 0 || first + n > cap then
      invalid_arg
        (Printf.sprintf "Sink.Batch: slice first=%d n=%d outside capacity %d"
           first n cap)

  (* Per-element accessors are bounds-checked.  Hot consumers validate
     their slice once with [check_slice] and read the hoisted buffer views
     with [unsafe_get] instead. *)
  let[@inline] addr b i = Bigarray.Array1.get b.addrs i
  let[@inline] size b i = Bigarray.Array1.get b.sizes i
  let[@inline] is_write b i = Bigarray.Array1.get b.ops i <> '\000'
  let[@inline] op b i = if is_write b i then Access.Write else Access.Read
  let[@inline] op_char = function
    | Access.Read -> '\000'
    | Access.Write -> '\001'

  let[@inline] set b i ~addr ~size ~op =
    Bigarray.Array1.set b.addrs i addr;
    Bigarray.Array1.set b.sizes i size;
    Bigarray.Array1.set b.ops i (op_char op)

  let[@inline] set_addr_op b i ~addr ~op =
    Bigarray.Array1.set b.addrs i addr;
    Bigarray.Array1.set b.ops i (op_char op)

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
end

type consumer = Batch.t -> first:int -> n:int -> unit

type t = {
  name : string;
  consumer : consumer;
  capacity : int; (* of the push buffer; 0: never buffers ([null]) *)
  (* [Batch.empty] until the first [push]: a sink that is only delivered
     to never allocates one *)
  mutable batch : Batch.t;
  mutable len : int;
  mutable pushed : int;
  mutable batches : int;
  mutable capacity_flushes : int;
  mutable boundary_flushes : int;
}

let default_capacity = 65536

let make ~name ~capacity consumer =
  {
    name;
    consumer;
    capacity;
    batch = Batch.empty;
    len = 0;
    pushed = 0;
    batches = 0;
    capacity_flushes = 0;
    boundary_flushes = 0;
  }

let create ?(name = "sink") ?(capacity = default_capacity) consumer =
  if capacity <= 0 then invalid_arg "Sink.create: capacity";
  make ~name ~capacity consumer

let null () = make ~name:"null" ~capacity:0 (fun _ ~first:_ ~n:_ -> ())

let flush t =
  if t.len > 0 then begin
    let n = t.len in
    t.len <- 0;
    t.batches <- t.batches + 1;
    t.boundary_flushes <- t.boundary_flushes + 1;
    t.consumer t.batch ~first:0 ~n
  end

(* Reached only while the push buffer is [Batch.empty]: a capacity flush
   leaves a full buffer empty again at once. *)
let first_push t =
  t.capacity > 0
  && begin
    t.batch <- Batch.create t.capacity;
    true
  end

let push t ~addr ~size ~op =
  t.pushed <- t.pushed + 1;
  let i = t.len in
  if i < Batch.capacity t.batch || first_push t then begin
    Batch.set t.batch i ~addr ~size ~op;
    t.len <- i + 1;
    if t.len = t.capacity then begin
      let n = t.len in
      t.len <- 0;
      t.batches <- t.batches + 1;
      t.capacity_flushes <- t.capacity_flushes + 1;
      t.consumer t.batch ~first:0 ~n
    end
  end

let deliver t batch ~first ~n =
  Batch.check_slice batch ~first ~n;
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
let buffer_capacity t = Batch.capacity t.batch

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
