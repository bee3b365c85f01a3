(** Nek5000 mini-app: unsteady incompressible flow on a 2-D eddy problem
    (spectral-element method).

    Memory-object population modelled on the paper's findings (§VII):
    - read-only auxiliary structures: inverse mass matrix [binvm1],
      element-lagged mass matrices [bm1lag] (≈7 % of the footprint);
    - computing-dependent read-only data: boundary conditions [cbc]
      (the paper counts 70 condition types), geometry [xm1]/[ym1],
      gather-scatter maps;
    - data with read/write ratio > 50: preconditioner diagonals, updated
      sparsely each step but consulted throughout the CG solves (≈4.7 %);
    - ≈24 % of the footprint used only outside the main loop (setup
      workspace, MPI/post aggregation buffers);
    - a stack-heavy element kernel ([ax_e]) executed by every CG
      iteration, giving >70 % stack references at a read/write ratio ≈6;
    - per-iteration reference-rate diversity: the number of CG sweeps
      varies with the time step (CFL-like), unlike the other apps. *)

module Ctx = Nvsc_appkit.Ctx
module Farray = Nvsc_appkit.Farray
module W = Workload

let name = "nek5000"
let description = "Fluid flow simulation"
let input_description = "2D eddy problem (scaled)"
let paper_footprint_mb = 824.

(* Element geometry: [nelt] spectral elements of [nx] x [nx] points. *)
let base_nelt = 64
let nx = 8
let nxyz = nx * nx

type state = {
  nelt : int;
  field : int; (* words per field *)
  (* hot read/write fields *)
  vx : Farray.t;
  vy : Farray.t;
  pr : Farray.t;
  temp : Farray.t;
  vtrans : Farray.t;
  vxlag : Farray.t;
  vylag : Farray.t;
  scrns : Farray.t; (* scratch common block *)
  (* mass matrices *)
  bm1 : Farray.t;
  binvm1 : Farray.t; (* read-only auxiliary *)
  bm1lag : Farray.t; (* read-only auxiliary *)
  (* read-only computing-dependent data *)
  cbc : Farray.t;
  xm1 : Farray.t;
  ym1 : Farray.t;
  glo_num : Farray.t;
  (* derivative operators (small, intensively read) *)
  dxm1 : Farray.t;
  dxtm1 : Farray.t;
  (* read/write ratio > 50 group *)
  prec_diag1 : Farray.t;
  prec_diag2 : Farray.t;
  (* unevenly-touched data (used in only a few iterations: the paper's
     migration candidates, fig. 7) *)
  filter_op : Farray.t;
  hist_window : Farray.t;
  (* main-loop-untouched data *)
  setup_work : Farray.t;
  post_agg : Farray.t;
  (* long-term heap: Krylov basis *)
  krylov : Farray.t array;
}

let setup ctx ~scale =
  let nelt = W.scaled scale base_nelt in
  let field = nelt * nxyz in
  let g name n = Farray.global ctx ~name n in
  let s = {
    nelt;
    field;
    vx = g "vx" field;
    vy = g "vy" field;
    pr = g "pr" field;
    temp = g "t" field;
    vtrans = g "vtrans" field;
    vxlag = g "vxlag" field;
    vylag = g "vylag" field;
    scrns = g "scrns" (36 * field);
    bm1 = g "bm1" field;
    binvm1 = g "binvm1" field;
    bm1lag = g "bm1lag" field;
    cbc = g "cbc" (W.scaled scale 2048);
    xm1 = g "xm1" (field / 2);
    ym1 = g "ym1" (field / 2);
    glo_num = g "glo_num" (W.scaled scale 1536);
    dxm1 = g "dxm1" nxyz;
    dxtm1 = g "dxtm1" nxyz;
    prec_diag1 = g "prec_diag1" (W.scaled scale 5632);
    prec_diag2 = g "prec_diag2" (W.scaled scale 5632);
    filter_op = g "filter_op" (W.scaled scale 6144);
    hist_window = g "hist_window" (W.scaled scale 4096);
    setup_work = g "setup_work" (W.scaled scale 32768);
    post_agg = g "post_agg" (W.scaled scale 38912);
    krylov =
      Array.init 8 (fun i ->
          Farray.heap ctx ~site:(Printf.sprintf "krylov_%d" i) field);
  }
  in
  (* Pre-computation: derive operators, inverse mass matrices, boundary
     conditions; sweep the setup workspace (its only use). *)
  Farray.init ctx s.dxm1 (fun i -> float_of_int ((i mod nx) - (nx / 2)));
  Farray.init ctx s.dxtm1 (fun i -> float_of_int ((i / nx) - (nx / 2)));
  Farray.init ctx s.bm1 (fun i -> 1.0 +. (0.5 /. float_of_int (1 + (i mod 7))));
  Farray.init ctx s.binvm1 (fun i -> 1.0 /. (1.0 +. float_of_int (i mod 7)));
  Farray.init ctx s.bm1lag (fun i -> 0.9 +. (0.01 *. float_of_int (i mod 11)));
  Farray.init ctx s.cbc (fun i -> float_of_int (i mod 70));
  Farray.init ctx s.xm1 (fun i -> float_of_int i *. 1e-3);
  Farray.init ctx s.ym1 (fun i -> float_of_int i *. 2e-3);
  Farray.init ctx s.glo_num (fun i -> float_of_int i);
  Farray.init ctx s.prec_diag1 (fun _ -> 1.0);
  Farray.init ctx s.prec_diag2 (fun _ -> 1.0);
  Farray.init ctx s.filter_op (fun i -> 1.0 -. (float_of_int (i mod 16) /. 64.));
  Farray.fill ctx s.hist_window 0.;
  Farray.fill ctx s.setup_work 0.;
  Farray.init ctx s.vx (fun i -> sin (float_of_int i *. 1e-2));
  Farray.init ctx s.vy (fun i -> cos (float_of_int i *. 1e-2));
  Farray.fill ctx s.pr 0.;
  Farray.fill ctx s.temp 300.;
  Farray.fill ctx s.vtrans 1.;
  Array.iter (fun k -> Farray.fill ctx k 0.) s.krylov;
  (* the checkpoint set: the lagged velocity history is the restart state
     (the live fields are mid-solve at any crash point) *)
  Farray.persist ctx s.vxlag;
  Farray.persist ctx s.vylag;
  s

(* The element stiffness kernel: the paper's archetype of a stack-heavy
   computation.  The element's field values and the derivative operator
   are staged into the routine's frame; the tensor contraction then reads
   the frame intensively and writes each result point once. *)
let ax_e ctx s ~(u : Farray.t) ~(w : Farray.t) ~elem =
  Ctx.call ctx ~routine:"ax_e" ~frame_words:(4 * nxyz) (fun frame ->
      let ul = Farray.stack ctx frame nxyz in
      let dxs = Farray.stack ctx frame nxyz in
      let wl = Farray.stack ctx frame nxyz in
      let jacs = Farray.stack ctx frame nxyz in
      let off = elem * nxyz in
      (* stage operator, geometry and element data onto the stack *)
      for i = 0 to nxyz - 1 do
        Farray.set dxs i (Farray.get s.dxm1 i)
      done;
      for i = 0 to nxyz - 1 do
        Farray.set jacs i
          (Farray.get s.xm1 ((off / 2) + (i / 2) mod Farray.length s.xm1))
      done;
      for i = 0 to nxyz - 1 do
        Farray.set ul i (Farray.get u (off + i))
      done;
      (* tensor contraction: per point, one row of each staged array *)
      for p = 0 to nxyz - 1 do
        let row = p - (p mod nx) in
        let acc = ref 0. in
        for k = 0 to nx - 1 do
          acc := !acc +. (Farray.get dxs (row + k) *. Farray.get ul (row + k))
        done;
        Farray.set wl p !acc;
        Ctx.flops ctx (2 * nx)
      done;
      (* second derivative pass reads the frame again *)
      for p = 0 to nxyz - 1 do
        let col = p mod nx in
        let acc = ref 0. in
        for k = 0 to nx - 1 do
          acc := !acc +. (Farray.get dxs ((k * nx) + col) *. Farray.get wl ((k * nx) + col))
        done;
        (* get-then-set rather than [W.rmw]: a closure over [acc] would
           box a float on every update *)
        let v = Farray.get wl p in
        Farray.set wl p (v +. !acc);
        Ctx.flops ctx (2 * nx)
      done;
      (* apply mass with the staged Jacobian and write back *)
      for i = 0 to nxyz - 1 do
        let m = Farray.get s.bm1 (off + i) in
        Farray.set w (off + i) (m *. Farray.get wl i *. Farray.get jacs i);
        Ctx.flops ctx 3
      done)

(* One conjugate-gradient sweep of the Helmholtz solve: applies the
   element kernel to every element, then global vector updates. *)
let cg_sweep ctx s ~(x : Farray.t) ~(r : Farray.t) =
  for elem = 0 to s.nelt - 1 do
    ax_e ctx s ~u:x ~w:r ~elem
  done;
  W.saxpy ctx ~alpha:0.01 ~x:r ~y:x;
  (* preconditioner: consult the diagonal (reads only) *)
  W.read_every s.prec_diag1 ~stride:1;
  W.read_every s.prec_diag2 ~stride:1

let iterate ctx s ~iter =
  (* CFL-dependent solver depth: Nek5000's per-iteration reference rates
     are the most diverse of the four apps (paper fig. 8). *)
  let sweeps = 8 + (iter * 5 mod 9) in
  (* lag the velocity history *)
  Farray.copy_into ctx ~src:s.vx ~dst:s.vxlag;
  Farray.copy_into ctx ~src:s.vy ~dst:s.vylag;
  (* short-term heap scratch for this step (same site every iteration) *)
  let scratch = Farray.heap ctx ~site:"step_scratch" s.field in
  Farray.fill ctx scratch 0.;
  for sweep = 0 to sweeps - 1 do
    let k = s.krylov.(sweep mod Array.length s.krylov) in
    cg_sweep ctx s ~x:(if sweep mod 2 = 0 then s.vx else s.vy) ~r:k
  done;
  (* pressure correction touches pr and the read-only aux matrices *)
  for i = 0 to s.field - 1 do
    let b = Farray.get s.binvm1 i in
    let v = Farray.get s.pr i in
    Farray.set s.pr i (v +. (0.1 *. b));
    Ctx.flops ctx 2
  done;
  (* energy equation: temperature update against lagged mass matrix *)
  for i = 0 to s.field - 1 do
    let m = Farray.get s.bm1lag i in
    let v = Farray.get s.temp i in
    Farray.set s.temp i (v +. (1e-4 *. m *. Farray.get scratch i));
    Ctx.flops ctx 3
  done;
  (* sparse preconditioner refresh: the > 50-ratio behaviour *)
  let refresh = Farray.length s.prec_diag1 / 48 in
  for j = 0 to refresh - 1 do
    Farray.set s.prec_diag1 (j * 48) (1.0 +. (0.01 *. float_of_int iter));
    Farray.set s.prec_diag2 (j * 48) (1.0 -. (0.01 *. float_of_int iter))
  done;
  (* boundary conditions and geometry consulted per element face *)
  for elem = 0 to s.nelt - 1 do
    ignore (Farray.get s.cbc (elem mod Farray.length s.cbc));
    ignore (Farray.get s.xm1 (elem * nxyz / 2 mod Farray.length s.xm1));
    ignore (Farray.get s.ym1 (elem * nxyz / 2 mod Farray.length s.ym1))
  done;
  (* spectral filtering only fires every third step, and the startup
     history window only during the first two: both objects are touched in
     just a few iterations (fig. 7's migration candidates) *)
  if iter mod 3 = 0 then W.read_every s.filter_op ~stride:1;
  if iter <= 2 then begin
    let n = Farray.length s.hist_window in
    for i = 0 to n - 1 do
      Farray.set s.hist_window i (Farray.get s.vx (i mod s.field))
    done
  end;
  (* transport properties: consulted widely, refreshed sparsely *)
  W.read_every s.vtrans ~stride:4;
  let j = ref 0 in
  while !j < s.field do
    let v = Farray.get s.vtrans !j in
    Farray.set s.vtrans !j (v *. 0.9999);
    j := !j + 8
  done;
  (* the scratch common block really is scratch: rewritten then consumed *)
  for i = 0 to s.field - 1 do
    Farray.set s.scrns i (Farray.get s.pr i)
  done;
  W.read_every s.scrns ~stride:8;
  W.read_every s.glo_num ~stride:2;
  Farray.free ctx scratch;
  (* failure-atomic checkpoint of the lagged restart state *)
  Ctx.persist_epoch ctx ~label:"checkpoint" ~checkpoint:true (fun () ->
      Farray.flush_all ctx s.vxlag;
      Farray.flush_all ctx s.vylag;
      Ctx.fence ctx)

let post _ctx s =
  (* aggregate results into the post buffer (its only use) *)
  for i = 0 to Farray.length s.post_agg - 1 do
    Farray.set s.post_agg i
      (Farray.get s.vx (i mod s.field) +. Farray.get s.vy (i mod s.field))
  done

let run ?(scale = 1.0) ctx ~iterations =
  if iterations < 1 then invalid_arg "Nek5000.run: iterations";
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Pre;
  let s = setup ctx ~scale in
  for iter = 1 to iterations do
    Ctx.set_phase ctx (Nvsc_memtrace.Mem_object.Main iter);
    iterate ctx s ~iter
  done;
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Post;
  post ctx s
