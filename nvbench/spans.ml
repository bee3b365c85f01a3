(* The harness's own spans: name, start, end and parent, kept in memory
   and written out as a Chrome trace when the run ends.  Timestamps come
   from the system-wide monotonic clock, so spans recorded by the traced
   pass's process line up with the harness's. *)

module J = Nvsc_util.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  start_ns : int;
  stop_ns : int;
}

let finished : span list ref = ref []
let open_spans = ref [ 0 ]
let next_id = ref 1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record name ~start_ns ~stop_ns =
  finished :=
    { id = fresh_id (); name; parent = List.hd !open_spans; start_ns; stop_ns }
    :: !finished

(* Run [f] inside a span; return its result and its duration in s. *)
let timed name f =
  let id = fresh_id () in
  let parent = List.hd !open_spans in
  open_spans := id :: !open_spans;
  let start_ns = Child.now_ns () in
  let stop () =
    open_spans := List.tl !open_spans;
    let stop_ns = Child.now_ns () in
    finished := { id; name; parent; start_ns; stop_ns } :: !finished;
    float_of_int (stop_ns - start_ns) *. 1e-9
  in
  match f () with
  | r -> (r, stop ())
  | exception e ->
    ignore (stop ());
    raise e

let span_to_json s =
  J.Obj
    [
      ("id", J.Int s.id);
      ("name", J.Str s.name);
      ("parent", J.Int s.parent);
      ("start_ns", J.Int s.start_ns);
      ("stop_ns", J.Int s.stop_ns);
    ]

let span_of_json j =
  let i k = J.to_int (J.member k j) in
  {
    id = i "id";
    name = J.to_str (J.member "name" j);
    parent = i "parent";
    start_ns = i "start_ns";
    stop_ns = i "stop_ns";
  }

let to_json () = J.List (List.rev_map span_to_json !finished)

(* Take in another process's spans under the innermost open span,
   renumbered into this process's ids. *)
let adopt j =
  let base = !next_id and parent = List.hd !open_spans in
  let spans = List.map span_of_json (J.to_list j) in
  List.iter
    (fun s ->
      finished :=
        {
          s with
          id = base + s.id;
          parent = (if s.parent = 0 then parent else base + s.parent);
        }
        :: !finished;
      next_id := max !next_id (base + s.id + 1))
    spans

(* Chrome-trace JSON (chrome://tracing, ui.perfetto.dev): one complete
   event per span, timestamps in microseconds from the first span. *)
let write_chrome_trace path =
  let spans = List.rev !finished in
  let origin = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let us ns = J.float (float_of_int ns /. 1e3) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", us (s.start_ns - origin));
        ("dur", us (s.stop_ns - s.start_ns));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (J.to_string (J.Obj [ ("traceEvents", J.List (List.map event spans)) ]));
      output_char oc '\n')
