(* Reference oracle for [Sympvl.Moments]: the column-copy formulation
   of the exact moments and of the scaled moment comparison — every
   iterate column read with [Mat.col], solved into a fresh vector,
   stored back with [Mat.set_col], and BᵀX formed as
   [Mat.mul (Mat.transpose b) x]. The library kernels keep plain
   per-port columns instead; [test_certify] checks them against these
   bit for bit. *)

module Mat = Linalg.Mat

let context ?ctx m = match ctx with Some c -> c | None -> Sympvl.Pencil.create m

(* K⁻¹b into a fresh vector, leaving b alone *)
let solve (fac : Sympvl.Factor.t) b =
  let x = Linalg.Vec.create fac.Sympvl.Factor.n in
  fac.Sympvl.Factor.solve (Linalg.Vec.copy b) x;
  x

let exact ?ctx ?(shift = 0.0) (m : Circuit.Mna.t) k =
  let fac = Sympvl.Pencil.factor (context ?ctx m) ~shift in
  let p = m.Circuit.Mna.b.Mat.cols in
  let n = m.Circuit.Mna.n in
  let x = Mat.create n p in
  for c = 0 to p - 1 do
    Mat.set_col x c (solve fac (Mat.col m.Circuit.Mna.b c))
  done;
  let x = ref x in
  Array.init k (fun jdx ->
      if jdx > 0 then begin
        let next = Mat.create n p in
        for c = 0 to p - 1 do
          let cx = Sparse.Csr.mul_vec m.Circuit.Mna.c (Mat.col !x c) in
          Mat.set_col next c (solve fac cx)
        done;
        x := next
      end;
      let mk = Mat.mul (Mat.transpose m.Circuit.Mna.b) !x in
      if jdx mod 2 = 0 then mk else Mat.scale (-1.0) mk)

let relative_errors_scaled ?ctx ?shift (model : Sympvl.Model.t) mna k =
  let shift = match shift with Some s -> s | None -> model.Sympvl.Model.shift in
  let fac = Sympvl.Pencil.factor (context ?ctx mna) ~shift in
  let p = mna.Circuit.Mna.b.Mat.cols in
  let n = mna.Circuit.Mna.n in
  let x = Mat.create n p in
  for c = 0 to p - 1 do
    Mat.set_col x c (solve fac (Mat.col mna.Circuit.Mna.b c))
  done;
  let x = ref x in
  let rho_delta = Mat.mul (Mat.transpose model.Sympvl.Model.rho) model.Sympvl.Model.delta in
  let y = ref (Mat.copy model.Sympvl.Model.rho) in
  let errs = Array.make k 0.0 in
  for jdx = 0 to k - 1 do
    if jdx > 0 then begin
      let next = Mat.create n p in
      for c = 0 to p - 1 do
        let cx = Sparse.Csr.mul_vec mna.Circuit.Mna.c (Mat.col !x c) in
        Mat.set_col next c (solve fac cx)
      done;
      let ynext = Mat.mul model.Sympvl.Model.t_mat !y in
      let scale = Float.max (Mat.max_abs next) 1e-300 in
      x := Mat.scale (1.0 /. scale) next;
      y := Mat.scale (1.0 /. scale) ynext
    end;
    let m_ex = Mat.mul (Mat.transpose mna.Circuit.Mna.b) !x in
    let m_red = Mat.mul rho_delta !y in
    let denom = Float.max (Mat.max_abs m_ex) 1e-300 in
    errs.(jdx) <- Mat.dist_max m_ex m_red /. denom
  done;
  errs
