type options = {
  order : int;
  shift : float option;
  band : (float * float) option;
  dtol : float;
  ctol : float;
  full_ortho : bool;
}

let default ~order =
  {
    order;
    shift = None;
    band = None;
    dtol = 1e-8;
    ctol = 1e-10;
    full_ortho = true;
  }

let band_shift = Pencil.band_shift

let auto_shift = Pencil.auto_shift

let log_src = Logs.Src.create "sympvl.reduce" ~doc:"SyMPVL driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

let run_with_factor (m : Circuit.Mna.t) opts shift fac =
  let j = fac.Factor.j in
  let c = m.Circuit.Mna.c in
  let n = m.Circuit.Mna.n in
  (* F = J⁻¹M⁻¹CM⁻ᵀ works in two N-vectors allocated once per
     reduction; only its result, the next candidate, is fresh *)
  let x = Linalg.Vec.create n and y = Linalg.Vec.create n in
  (* J⁻¹M⁻¹u (J⁻¹ = J for J = diag(±1)); u is overwritten *)
  let jm_inv u =
    fac.Factor.m_inv u y;
    let out = Linalg.Vec.create n in
    for i = 0 to n - 1 do
      out.(i) <- j.(i) *. y.(i)
    done;
    out
  in
  let op v =
    if Obs.tracing () then Obs.count "krylov.op_applies" 1;
    Array.blit v 0 x 0 n;
    fac.Factor.mt_inv x y;
    Sparse.Csr.mul_vec_into c y x;
    jm_inv x
  in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let start = Linalg.Mat.create n p in
  for k = 0 to p - 1 do
    Linalg.Mat.set_col start k (jm_inv (Linalg.Mat.col m.Circuit.Mna.b k))
  done;
  let res =
    Band_lanczos.run ~dtol:opts.dtol ~ctol:opts.ctol ~full_ortho:opts.full_ortho
      ~n_max:opts.order ~op ~j ~start ()
  in
  Log.info (fun f ->
      f "SyMPVL: N=%d p=%d -> order %d (deflations %d, look-ahead %d, definite %b)"
        m.Circuit.Mna.n p res.Band_lanczos.order
        (List.length res.Band_lanczos.deflations)
        res.Band_lanczos.look_ahead_steps fac.Factor.definite);
  Model.make ~t_mat:res.Band_lanczos.t_mat ~delta:res.Band_lanczos.delta
    ~rho:res.Band_lanczos.rho ~shift ~variable:m.Circuit.Mna.variable
    ~gain:m.Circuit.Mna.gain ~definite:fac.Factor.definite
    ~deflations:(List.length res.Band_lanczos.deflations)
    ~look_ahead_steps:res.Band_lanczos.look_ahead_steps
    ~exhausted:res.Band_lanczos.exhausted

(* all pencil work — pre-flight, ordering, factorisation, shift policy —
   goes through the shared [ctx] (built here unless the caller reuses
   one) *)
let mna ?opts ?ctx ~order (m : Circuit.Mna.t) =
  let opts = match opts with Some o -> o | None -> default ~order in
  Obs.with_span "reduce.mna" @@ fun () ->
  let ctx = match ctx with Some c -> c | None -> Pencil.create m in
  Pencil.with_auto_shift ?shift:opts.shift ?band:opts.band ctx (run_with_factor m opts)

let netlist ?opts ~order nl = mna ?opts ~order (Circuit.Mna.auto nl)

let to_accuracy ?opts ?ctx ?max_order ?(points = 25) ~tol ~band (m : Circuit.Mna.t) =
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let max_order =
    match max_order with Some n -> n | None -> min m.Circuit.Mna.n 200
  in
  let f_lo, f_hi = band in
  let freqs =
    Array.init points (fun i ->
        let t = float_of_int i /. float_of_int (points - 1) in
        10.0 ** (log10 f_lo +. (t *. (log10 f_hi -. log10 f_lo))))
  in
  let eval_grid model =
    (* the error-probe grid: points are independent model evaluations,
       so they run on the shared pool (deterministic at any job count) *)
    Parallel.Pool.parallel_map (Parallel.get ()) (Array.length freqs) (fun i ->
        if San.race () then San.Race.note_write ~tag:"reduce.grid" i;
        Realisation.eval model.Model.real (Linalg.Cx.im (2.0 *. Float.pi *. freqs.(i))))
  in
  let deviation za zb =
    let worst = ref 0.0 in
    Array.iteri
      (fun i a ->
        let scale = Float.max (Linalg.Cmat.max_abs a) 1e-300 in
        worst := Float.max !worst (Linalg.Cmat.dist_max a zb.(i) /. scale))
      za;
    !worst
  in
  (* one shared context across the whole escalation: the symbolic
     phase runs once and every retried order reuses the cached
     factorisation at the common expansion shift *)
  let ctx = match ctx with Some c -> c | None -> Pencil.create m in
  let build order =
    let base = match opts with Some o -> o | None -> default ~order in
    let o = { base with order; band = Some band } in
    mna ~opts:o ~ctx ~order m
  in
  Obs.with_span "reduce.adaptive" @@ fun () ->
  let rec grow order prev_grid =
    let order = min order max_order in
    let model = build order in
    let grid = eval_grid model in
    let dev = deviation prev_grid grid in
    if Obs.tracing () then begin
      Obs.count "reduce.escalations" 1;
      Obs.instant
        ~args:[ ("order", Obs.Int model.Model.order); ("deviation", Obs.Float dev) ]
        "reduce.escalate"
    end;
    if dev <= tol || order >= max_order || model.Model.exhausted then begin
      if Obs.tracing () then Obs.gauge "reduce.final_order" (float_of_int model.Model.order);
      (model, dev)
    end
    else grow (order + max (2 * p) (order / 2)) grid
  in
  let order0 = max (2 * p) 4 in
  grow (order0 + max (2 * p) (order0 / 2)) (eval_grid (build order0))

let scalar ?opts ~order ~port (m : Circuit.Mna.t) =
  let b = Linalg.Mat.create m.Circuit.Mna.n 1 in
  Linalg.Mat.set_col b 0 (Linalg.Mat.col m.Circuit.Mna.b port);
  mna ?opts ~order { m with Circuit.Mna.b; port_names = [| m.Circuit.Mna.port_names.(port) |] }
