module Access = Nvsc_memtrace.Access
module Mem_object = Nvsc_memtrace.Mem_object
module Layout = Nvsc_memtrace.Layout
module Suitability = Nvsc_nvram.Suitability
module Technology = Nvsc_nvram.Technology
module Interval_map = Nvsc_util.Interval_map
module Table = Nvsc_util.Table

type row = {
  name : string;
  kind : Layout.kind;
  size_bytes : int;
  line_reads : int;
  line_writes : int;
  energy_nj : float;
  energy_share : float;
  verdict : Suitability.verdict;
}

type report = {
  app_name : string;
  rows : row list;
  attributed : int;
  unattributed : int;
  movable_energy_fraction : float;
}

type acc = { metric : Object_metrics.t; mutable r : int; mutable w : int }

let analyze (result : Scavenger.result) =
  let trace =
    match result.Scavenger.mem_trace with
    | Some t -> t
    | None -> invalid_arg "Traffic_attribution.analyze: result lacks a trace"
  in
  let metrics = Scavenger.global_and_heap_metrics result in
  let map =
    Interval_map.build
      (List.map
         (fun (m : Object_metrics.t) ->
           ( m.obj.Mem_object.base,
             m.obj.Mem_object.base + m.obj.Mem_object.size,
             { metric = m; r = 0; w = 0 } ))
         metrics)
  in
  let attributed = ref 0 and unattributed = ref 0 in
  (* walk the trace's chunks directly: no record materialisation *)
  let module Batch = Nvsc_memtrace.Sink.Batch in
  Nvsc_memtrace.Trace_log.iter_slices trace (fun batch ~first ~n ->
      for i = first to first + n - 1 do
        match Interval_map.find map (Batch.addr batch i) with
        | Some cell ->
          incr attributed;
          if Batch.is_write batch i then cell.w <- cell.w + 1
          else cell.r <- cell.r + 1
        | None -> incr unattributed
      done);
  (* DDR3 burst energies at line granularity *)
  let power =
    Nvsc_dramsim.Power_params.of_tech
      (Technology.get Technology.DDR3)
      ~org:Nvsc_dramsim.Org.paper
  in
  let timing =
    Nvsc_dramsim.Timing.of_tech
      (Technology.get Technology.DDR3)
      ~org:Nvsc_dramsim.Org.paper
  in
  let e_r =
    Nvsc_dramsim.Power_params.burst_read_energy_nj power
      ~t_burst_ns:timing.Nvsc_dramsim.Timing.t_burst_ns
  in
  let e_w =
    Nvsc_dramsim.Power_params.burst_write_energy_nj power
      ~t_burst_ns:timing.Nvsc_dramsim.Timing.t_burst_ns
  in
  let cells =
    Interval_map.ranges map |> List.map (fun (_, _, cell) -> cell)
  in
  let total_energy =
    List.fold_left
      (fun acc cell ->
        acc +. (float_of_int cell.r *. e_r) +. (float_of_int cell.w *. e_w))
      0. cells
  in
  let rows =
    cells
    |> List.map (fun cell ->
           let m = cell.metric in
           let energy =
             (float_of_int cell.r *. e_r) +. (float_of_int cell.w *. e_w)
           in
           {
             name = m.Object_metrics.obj.Mem_object.name;
             kind = m.obj.Mem_object.kind;
             size_bytes = Object_metrics.size_bytes m;
             line_reads = cell.r;
             line_writes = cell.w;
             energy_nj = energy;
             energy_share =
               (if total_energy > 0. then energy /. total_energy else 0.);
             verdict =
               Suitability.classify ~category:Technology.Cat2_long_write
                 (Object_metrics.suitability_metrics m);
           })
    |> List.sort (fun a b -> compare b.energy_nj a.energy_nj)
  in
  let movable =
    List.fold_left
      (fun acc row ->
        if row.verdict <> Suitability.Dram_preferred then
          acc +. row.energy_share
        else acc)
      0. rows
  in
  {
    app_name = result.Scavenger.app_name;
    rows;
    attributed = !attributed;
    unattributed = !unattributed;
    movable_energy_fraction = movable;
  }

let pp_report ?(max_rows = 15) fmt r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Main-memory traffic by object: %s" r.app_name)
      [
        ("Object", Table.Left);
        ("Kind", Table.Left);
        ("Size", Table.Right);
        ("Line reads", Table.Right);
        ("Line writes", Table.Right);
        ("Energy share", Table.Right);
        ("Verdict", Table.Left);
      ]
  in
  List.iteri
    (fun i row ->
      if i < max_rows && row.line_reads + row.line_writes > 0 then
        Table.add_row table
          [
            row.name;
            Layout.kind_to_string row.kind;
            Table.cell_bytes row.size_bytes;
            Table.cell_i row.line_reads;
            Table.cell_i row.line_writes;
            Table.cell_pct row.energy_share;
            Format.asprintf "%a" Suitability.pp_verdict row.verdict;
          ])
    r.rows;
  Table.pp fmt table;
  Format.fprintf fmt
    "attributed %d lines (%d outside global/heap objects); %s of burst \
     energy sits on NVRAM-suitable objects@."
    r.attributed r.unattributed
    (Table.cell_pct r.movable_energy_fraction)
