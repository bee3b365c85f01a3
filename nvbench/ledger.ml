(* The result document (schema nvbench/1) that nvbench writes and
   compare.exe reads, and the comparison of two of them. *)

module J = Nvsc_util.Json

type row = {
  metric : Spec.metric;  (** as declared by the run that measured it *)
  stats : Sample_stats.t;
}

type workload = {
  name : string;
  variant : string;
  attempted : int;
  failed : int;
  failures : string list;
  rows : row list;
}

let failed_frac w = float_of_int w.failed /. float_of_int (max 1 w.attempted)

(* A row carries its metric's declaration, so a later run judges an
   earlier one by the bounds it was measured under. *)
let row_to_json { metric = m; stats = s } =
  J.Obj
    ([
       ("name", J.Str m.name);
       ("unit", J.Str m.unit_);
       ("better", J.Str (Spec.better_to_string m.better));
     ]
    @ (match m.bound with Some b -> [ ("bound", J.float b) ] | None -> [])
    @ [
        ("median", J.float s.median);
        ("q1", J.float s.q1);
        ("q3", J.float s.q3);
        ("min", J.float s.min);
        ("max", J.float s.max);
        ("n", J.Int s.n);
      ])

let row_of_json j =
  let f k = J.to_float (J.member k j) in
  {
    metric =
      {
        Spec.name = J.to_str (J.member "name" j);
        unit_ = J.to_str (J.member "unit" j);
        better = Spec.better_of_string (J.to_str (J.member "better" j));
        bound = Option.map J.to_float (J.member_opt "bound" j);
      };
    stats =
      {
        Sample_stats.median = f "median";
        q1 = f "q1";
        q3 = f "q3";
        min = f "min";
        max = f "max";
        n = J.to_int (J.member "n" j);
      };
  }

let workload_to_json w =
  J.Obj
    [
      ("name", J.Str w.name);
      ("variant", J.Str w.variant);
      ("attempted", J.Int w.attempted);
      ("failed", J.Int w.failed);
      ("failed_frac", J.float (failed_frac w));
      ("failures", J.List (List.map (fun f -> J.Str f) w.failures));
      ("rows", J.List (List.map row_to_json w.rows));
    ]

let workload_of_json j =
  {
    name = J.to_str (J.member "name" j);
    variant = J.to_str (J.member "variant" j);
    attempted = J.to_int (J.member "attempted" j);
    failed = J.to_int (J.member "failed" j);
    failures = List.map J.to_str (J.to_list (J.member "failures" j));
    rows = List.map row_of_json (J.to_list (J.member "rows" j));
  }

let schema = "nvbench/1"

let to_json ~seed ~samples ~reps workloads =
  J.Obj
    [
      ("schema", J.Str schema);
      ( "host",
        J.Obj
          [
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
          ] );
      ("seed", J.Int seed);
      ("samples", J.Int samples);
      ("reps", J.Int reps);
      ("workloads", J.List (List.map workload_to_json workloads));
    ]

let of_json j =
  if J.to_str (J.member "schema" j) <> schema then
    raise (J.Parse_error ("not an " ^ schema ^ " document"));
  List.map workload_of_json (J.to_list (J.member "workloads" j))

(* --- comparison ------------------------------------------------------------ *)

type line = {
  workload : string;
  metric : string;
  parent : float;
  change : float;
  verdict : string;  (** empty for per-layer metrics *)
}

(* Every metric the parent measured, workload by workload, judged with
   the parent's declared bound.  [bad] is set by any regression and by
   any rise in a workload's failed fraction. *)
let compare ~parent ~change =
  let bad = ref false in
  let lines =
    List.concat_map
      (fun (pw : workload) ->
        match List.find_opt (fun (c : workload) -> c.name = pw.name) change with
        | None ->
          bad := true;
          [ { workload = pw.name; metric = "-"; parent = 0.; change = 0.;
              verdict = "missing" } ]
        | Some cw ->
          let frac =
            let p = failed_frac pw and c = failed_frac cw in
            if c > p then bad := true;
            { workload = pw.name; metric = "failed_frac"; parent = p; change = c;
              verdict = (if c > p then "RISE" else "ok") }
          in
          frac
          :: List.filter_map
               (fun (pr : row) ->
                 List.find_opt
                   (fun (cr : row) -> cr.metric.name = pr.metric.name)
                   cw.rows
                 |> Option.map (fun (cr : row) ->
                        let verdict =
                          match pr.metric.bound with
                          | None -> ""
                          | Some bound ->
                            let v =
                              Verdict.judge ~better:pr.metric.better ~bound
                                ~parent:pr.stats ~change:cr.stats
                            in
                            if v = Verdict.Regression then bad := true;
                            Verdict.to_string v
                        in
                        {
                          workload = pw.name;
                          metric = pr.metric.name;
                          parent = pr.stats.median;
                          change = cr.stats.median;
                          verdict;
                        }))
               pw.rows)
      parent
  in
  (lines, !bad)
