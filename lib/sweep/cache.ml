module Json = Nvsc_util.Json

type t = {
  dir : string;
  max_entries : int option;
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int }

(* The per-cache record fields above are this cache's totals; the
   registry counters below are the process-wide aggregate reported once
   by the profile summary, across every cache and sweep. *)
let m_hits = Nvsc_obs.Metrics.counter "sweep.cache.hits"
let m_misses = Nvsc_obs.Metrics.counter "sweep.cache.misses"
let m_evictions = Nvsc_obs.Metrics.counter "sweep.cache.evictions"

let count_hit (t : t) =
  t.hits <- t.hits + 1;
  Nvsc_obs.Metrics.Counter.incr m_hits

let count_miss (t : t) =
  t.misses <- t.misses + 1;
  Nvsc_obs.Metrics.Counter.incr m_misses

let count_eviction (t : t) =
  t.evictions <- t.evictions + 1;
  Nvsc_obs.Metrics.Counter.incr m_evictions

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let index_file t = Filename.concat t.dir "cache.index"
let entry_path t digest = Filename.concat t.dir (digest ^ ".json")

let create ~dir ?max_entries () =
  mkdir_p dir;
  {
    dir;
    max_entries;
    mu = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let dir t = t.dir
let stats (t : t) = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* --- insertion-order index (for bounded caches) ------------------------- *)

let read_index t =
  if Sys.file_exists (index_file t) then
    String.split_on_char '\n' (read_file (index_file t))
    |> List.filter (fun l -> l <> "")
  else []

let write_index t digests =
  write_file (index_file t)
    (String.concat "" (List.map (fun d -> d ^ "\n") digests))

let append_index t digest =
  let entries = List.filter (fun d -> d <> digest) (read_index t) in
  write_index t (entries @ [ digest ])

let evict t =
  match t.max_entries with
  | None -> ()
  | Some max ->
    let live =
      List.filter (fun d -> Sys.file_exists (entry_path t d)) (read_index t)
    in
    let excess = List.length live - max in
    if excess > 0 then begin
      let rec drop k = function
        | d :: rest when k > 0 ->
          remove_if_exists (entry_path t d);
          count_eviction t;
          drop (k - 1) rest
        | rest -> rest
      in
      let kept = drop excess live in
      write_index t kept
    end
    else if List.length live <> List.length (read_index t) then
      write_index t live

(* --- lookup / store ----------------------------------------------------- *)

let wrap spec payload =
  Json.Obj
    [
      ("version", Json.Str Cell.code_version);
      ("spec", Cell.spec_to_json spec);
      ("payload", Cell.payload_to_json payload);
    ]

let unwrap spec json =
  if Json.to_str (Json.member "version" json) <> Cell.code_version then
    raise (Json.Parse_error "Cache: stale code version");
  let stored = Cell.spec_of_json (Json.member "spec" json) in
  if stored <> spec then raise (Json.Parse_error "Cache: spec mismatch");
  Cell.payload_of_json (Json.member "payload" json)

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let find t spec =
  with_lock t @@ fun () ->
  let path = entry_path t (Cell.digest spec) in
  if not (Sys.file_exists path) then begin
    count_miss t;
    None
  end
  else
    match unwrap spec (Json.of_string (read_file path)) with
    | payload ->
      count_hit t;
      Some payload
    | exception (Json.Parse_error _ | Sys_error _) ->
      (* corrupt, stale or colliding entry: drop it and recompute *)
      remove_if_exists path;
      count_miss t;
      None

let store t spec payload =
  with_lock t @@ fun () ->
  let digest = Cell.digest spec in
  write_file (entry_path t digest) (Json.to_string (wrap spec payload));
  append_index t digest;
  evict t
