module Json = Nvsc_util.Json

module Counter = struct
  type t = int Atomic.t

  let incr t = ignore (Atomic.fetch_and_add t 1)
  let add t n = ignore (Atomic.fetch_and_add t n)
  let get = Atomic.get
end

module Gauge = struct
  type t = float Atomic.t

  let set t v = Atomic.set t v
  let get = Atomic.get
end

module Dist = struct
  type t = {
    count : int Atomic.t;
    sum : int Atomic.t;
    dmin : int Atomic.t;
    dmax : int Atomic.t;
  }

  let make () =
    {
      count = Atomic.make 0;
      sum = Atomic.make 0;
      dmin = Atomic.make max_int;
      dmax = Atomic.make min_int;
    }

  let rec join cell better v =
    let cur = Atomic.get cell in
    if better v cur && not (Atomic.compare_and_set cell cur v) then
      join cell better v

  let observe t v =
    ignore (Atomic.fetch_and_add t.count 1);
    ignore (Atomic.fetch_and_add t.sum v);
    join t.dmin ( < ) v;
    join t.dmax ( > ) v

  let reset t =
    Atomic.set t.count 0;
    Atomic.set t.sum 0;
    Atomic.set t.dmin max_int;
    Atomic.set t.dmax min_int
end

type dist_snapshot = { count : int; sum : int; min : int; max : int }
type value = Counter of int | Gauge of float | Dist of dist_snapshot

type metric = C of Counter.t | G of Gauge.t | D of Dist.t

(* Registration is the only locked path; updates are single atomics. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let register name make =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        m)

let kind_name = function C _ -> "counter" | G _ -> "gauge" | D _ -> "dist"

let mismatch name want m =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %S is already registered as a %s" want name
       (kind_name m))

let counter name =
  match register name (fun () -> C (Atomic.make 0)) with
  | C c -> c
  | m -> mismatch name "counter" m

let gauge name =
  match register name (fun () -> G (Atomic.make 0.)) with
  | G g -> g
  | m -> mismatch name "gauge" m

let dist name =
  match register name (fun () -> D (Dist.make ())) with
  | D d -> d
  | m -> mismatch name "dist" m

let read = function
  | C c -> Counter (Counter.get c)
  | G g -> Gauge (Gauge.get g)
  | D d ->
    let count = Atomic.get d.Dist.count in
    Dist
      {
        count;
        sum = Atomic.get d.Dist.sum;
        min = (if count = 0 then 0 else Atomic.get d.Dist.dmin);
        max = (if count = 0 then 0 else Atomic.get d.Dist.dmax);
      }

let snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun name m acc -> (name, read m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let get name =
  locked (fun () -> Hashtbl.find_opt registry name) |> Option.map read

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | C c -> Atomic.set c 0
          | G g -> Atomic.set g 0.
          | D d -> Dist.reset d)
        registry)

let value_to_json = function
  | Counter n -> Json.Int n
  | Gauge v -> Json.float v
  | Dist d ->
    Json.Obj
      [
        ("count", Json.Int d.count);
        ("sum", Json.Int d.sum);
        ("min", Json.Int d.min);
        ("max", Json.Int d.max);
      ]

(* A wall-clock metric is one whose name ends in "_ns": the only values
   that vary between byte-identical runs.  [strip_time] drops them (and a
   dist's irreproducible fields would go with the whole entry) so two
   snapshots of the same workload compare equal. *)
let is_wall_clock name =
  let suffix = "_ns" in
  let n = String.length name and k = String.length suffix in
  n >= k && String.sub name (n - k) k = suffix

let snapshot_json ?(strip_time = false) () =
  Json.Obj
    (snapshot ()
    |> List.filter (fun (name, _) -> not (strip_time && is_wall_clock name))
    |> List.map (fun (name, v) -> (name, value_to_json v)))

let touched snap =
  List.filter
    (fun (_, v) ->
      match v with
      | Counter n -> n <> 0
      | Gauge g -> g <> 0.
      | Dist d -> d.count > 0)
    snap

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge v -> Format.fprintf fmt "%g" v
  | Dist d ->
    Format.fprintf fmt "count %d  sum %d  min %d  max %d" d.count d.sum d.min
      d.max

let pp_snapshot fmt snap =
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 0 snap
  in
  List.iter
    (fun (name, v) ->
      Format.fprintf fmt "  %-*s %a@." width name pp_value v)
    snap
