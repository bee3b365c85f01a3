module Ctx = Nvsc_appkit.Ctx
module Mem_object = Nvsc_memtrace.Mem_object
module Sink = Nvsc_memtrace.Sink

type window_counts = (int * int * int) list

type t = {
  ctx : Ctx.t;
  window_refs : int;
  on_window : window_counts -> unit;
  counts : (int, int ref * int ref) Hashtbl.t;
  mutable in_window : int;
  mutable windows : int;
  mutable seen : int;
}

let deliver t =
  if t.in_window > 0 then begin
    let out =
      Hashtbl.fold
        (fun obj_id (r, w) acc -> (obj_id, !r, !w) :: acc)
        t.counts []
      |> List.sort compare
    in
    Hashtbl.reset t.counts;
    t.in_window <- 0;
    t.windows <- t.windows + 1;
    t.on_window out
  end

let attach ctx ~window_refs ~on_window =
  if window_refs <= 0 then invalid_arg "Fine_monitor.attach: window_refs";
  let t =
    {
      ctx;
      window_refs;
      on_window;
      counts = Hashtbl.create 256;
      in_window = 0;
      windows = 0;
      seen = 0;
    }
  in
  (* Observed slices carry the emission-time object ids, so the monitor
     needs no address re-resolution at delivery time. *)
  Ctx.observe ctx ~on_refs:(fun batch ~obj_ids ~first ~n ->
      for i = first to first + n - 1 do
        t.seen <- t.seen + 1;
        let id = obj_ids.(i) in
        if id >= 0 then begin
          let r, w =
            match Hashtbl.find_opt t.counts id with
            | Some cell -> cell
            | None ->
              let cell = (ref 0, ref 0) in
              Hashtbl.add t.counts id cell;
              cell
          in
          if Sink.Batch.is_write batch i then incr w else incr r
        end;
        t.in_window <- t.in_window + 1;
        if t.in_window >= t.window_refs then deliver t
      done)
    ();
  t

let flush t =
  Ctx.flush_refs t.ctx;
  deliver t

let windows t = t.windows
let references_seen t = t.seen
