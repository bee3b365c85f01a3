module Layout = Nvsc_memtrace.Layout
module Mem_object = Nvsc_memtrace.Mem_object

type t = {
  ctx : Ctx.t;
  data : float array;
  base : int;
  obj : Mem_object.t option;
}

let global ctx ~name n =
  let obj = Ctx.alloc_global ctx ~name ~words:n in
  { ctx; data = Array.make n 0.; base = obj.Mem_object.base; obj = Some obj }

let heap ctx ~site n =
  let obj = Ctx.alloc_heap ctx ~site ~words:n in
  { ctx; data = Array.make n 0.; base = obj.Mem_object.base; obj = Some obj }

let global_overlay ctx ~name ~over ~offset_words n =
  match over.obj with
  | None -> invalid_arg "Farray.global_overlay: base array has no object"
  | Some base_obj ->
    let merged =
      Ctx.alloc_global_overlay ctx ~name ~over:base_obj ~offset_words ~words:n
    in
    {
      ctx;
      data = Array.make n 0.;
      base = over.base + (offset_words * Layout.word);
      obj = Some merged;
    }

let stack ctx frame n =
  let base = Ctx.frame_carve ctx frame ~words:n in
  { ctx; data = Array.make n 0.; base; obj = None }

let free ctx t =
  match t.obj with
  | Some obj when obj.Mem_object.kind = Layout.Heap -> Ctx.free_heap ctx obj
  | Some _ -> invalid_arg "Farray.free: only heap arrays can be freed"
  | None -> invalid_arg "Farray.free: stack arrays are freed with their frame"

let length t = Array.length t.data
let obj t = t.obj
let base t = t.base

let[@inline] addr_of t i = t.base + (i * Layout.word)

(* Inlined so the float result/argument flows unboxed at the call site:
   a non-inlined float return boxes on every instrumented access.  That
   holds only where cross-module inlining works, i.e. not under dune's
   dev profile, which compiles every module -opaque; the root
   dune-workspace builds release (see DESIGN.md, "Build profile"). *)
let[@inline] get t i =
  Ctx.read_addr t.ctx ~addr:(addr_of t i);
  t.data.(i)

let[@inline] set t i v =
  Ctx.write_addr t.ctx ~addr:(addr_of t i);
  t.data.(i) <- v

let fill _ctx t v =
  for i = 0 to length t - 1 do
    set t i v
  done

let init _ctx t f =
  for i = 0 to length t - 1 do
    set t i (f i)
  done

let sum _ctx t =
  let acc = ref 0. in
  for i = 0 to length t - 1 do
    acc := !acc +. get t i
  done;
  !acc

let copy_into _ctx ~src ~dst =
  if length src <> length dst then invalid_arg "Farray.copy_into: lengths";
  for i = 0 to length src - 1 do
    set dst i (get src i)
  done

let[@inline] peek t i = t.data.(i)
let[@inline] poke t i v = t.data.(i) <- v

(* --- persistence ------------------------------------------------------- *)

let obj_exn ~what t =
  match t.obj with
  | Some o -> o
  | None -> invalid_arg (what ^ ": stack arrays cannot be persistent")

let persist ctx t = Ctx.persist ctx (obj_exn ~what:"Farray.persist" t)

let flush ctx t ~lo ~len =
  if lo < 0 || len <= 0 || lo + len > length t then
    invalid_arg "Farray.flush: element range outside the array";
  Ctx.flush ctx
    (obj_exn ~what:"Farray.flush" t)
    ~off:(lo * Layout.word) ~len:(len * Layout.word)

let flush_all ctx t = Ctx.flush_all ctx (obj_exn ~what:"Farray.flush_all" t)
