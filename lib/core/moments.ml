(* all solves go through the shared pencil context: with [ctx] reused
   from a reduction at the same shift, the factorisation is a cache
   hit and the moment check costs only triangular solves *)
let context ?ctx m =
  match ctx with Some c -> c | None -> Pencil.create m

(* per column of B, its nonzero rows ascending and their entries *)
let nonzero_columns (b : Linalg.Mat.t) =
  let n = b.Linalg.Mat.rows and p = b.Linalg.Mat.cols in
  Array.init p (fun c ->
      let nz = ref 0 in
      for i = 0 to n - 1 do
        if b.Linalg.Mat.a.((i * p) + c) <> 0.0 then incr nz
      done;
      let rows = Array.make !nz 0 and vals = Array.create_float !nz in
      let t = ref 0 in
      for i = 0 to n - 1 do
        let v = b.Linalg.Mat.a.((i * p) + c) in
        if v <> 0.0 then begin
          rows.(!t) <- i;
          vals.(!t) <- v;
          incr t
        end
      done;
      (rows, vals))

(* (−1)·BᵀX when [negate], else BᵀX, for X given as p columns: entry
   (i, j) accumulates B(k,i)·X(k,j) over the nonzero rows k of column
   i, ascending, from 0.0 — the order and rounding of
   [Mat.mul (Mat.transpose b) x], bit for bit *)
let bt_x ~negate nz (xs : Linalg.Vec.t array) =
  let p = Array.length xs in
  let mk = Linalg.Mat.create p p in
  for i = 0 to p - 1 do
    let rows, vals = nz.(i) in
    for j = 0 to p - 1 do
      let x = xs.(j) in
      let s = ref 0.0 in
      for t = 0 to Array.length rows - 1 do
        s := !s +. (vals.(t) *. x.(rows.(t)))
      done;
      mk.Linalg.Mat.a.((i * p) + j) <- (if negate then -1.0 *. !s else !s)
    done
  done;
  mk

(* X₀ = K⁻¹B as p columns, each solved from a copy of its B column *)
let start (fac : Factor.t) (b : Linalg.Mat.t) work =
  let n = b.Linalg.Mat.rows and p = b.Linalg.Mat.cols in
  Array.init p (fun c ->
      for i = 0 to n - 1 do
        work.(i) <- b.Linalg.Mat.a.((i * p) + c)
      done;
      let x = Linalg.Vec.create n in
      fac.Factor.solve work x;
      x)

(* X ← K⁻¹ C X, column by column in place: C·x goes to [work], which
   the solve then consumes *)
let advance (fac : Factor.t) c work xs =
  Array.iter
    (fun x ->
      Sparse.Csr.mul_vec_into c x work;
      fac.Factor.solve work x)
    xs

let exact ?ctx ?(shift = 0.0) (m : Circuit.Mna.t) k =
  let fac = Pencil.factor (context ?ctx m) ~shift in
  let b = m.Circuit.Mna.b in
  let nz = nonzero_columns b and work = Linalg.Vec.create m.Circuit.Mna.n in
  (* X₀ = K⁻¹B, X_{j+1} = K⁻¹ C X_j; moment_j = (−1)ʲ Bᵀ X_j *)
  let xs = start fac b work in
  Array.init k (fun jdx ->
      if jdx > 0 then advance fac m.Circuit.Mna.c work xs;
      bt_x ~negate:(jdx mod 2 = 1) nz xs)

let relative_errors ?ctx ?shift model mna k =
  let shift = match shift with Some s -> s | None -> model.Model.shift in
  let ex = exact ?ctx ~shift mna k in
  let red = Model.moments model k in
  Array.init k (fun i ->
      let scale = Float.max (Linalg.Mat.max_abs ex.(i)) 1e-300 in
      Linalg.Mat.dist_max ex.(i) red.(i) /. scale)

let matched_count ?ctx ?shift ?(rtol = 1e-6) model mna =
  let max_check = (2 * model.Model.order) + 2 in
  let errs = relative_errors ?ctx ?shift model mna max_check in
  let rec count i = if i < max_check && errs.(i) <= rtol then count (i + 1) else i in
  count 0

(* Scaled comparison: run both Krylov recurrences with per-step
   renormalisation by the exact iterate's magnitude, so the two
   sequences stay on a common scale and never leave the float range. *)
let relative_errors_scaled ?ctx ?shift model mna k =
  let shift = match shift with Some s -> s | None -> model.Model.shift in
  let fac = Pencil.factor (context ?ctx mna) ~shift in
  let b = mna.Circuit.Mna.b in
  let nz = nonzero_columns b and work = Linalg.Vec.create mna.Circuit.Mna.n in
  (* exact iterate *)
  let xs = start fac b work in
  (* reduced iterate: y₀ = ρ, moment = ρᵀ Δ y (sign-free: both sides
     carry the same (−1)ᵏ, which cancels in the comparison) *)
  let rho_delta =
    Linalg.Mat.mul (Linalg.Mat.transpose model.Model.rho) model.Model.delta
  in
  let y = ref (Linalg.Mat.copy model.Model.rho) in
  let errs = Array.make k 0.0 in
  for jdx = 0 to k - 1 do
    if jdx > 0 then begin
      (* advance both recurrences *)
      advance fac mna.Circuit.Mna.c work xs;
      let ynext = Linalg.Mat.mul model.Model.t_mat !y in
      (* common renormalisation by the exact iterate's magnitude *)
      let big = ref 0.0 in
      Array.iter
        (fun x ->
          for i = 0 to Array.length x - 1 do
            big := Float.max !big (Float.abs x.(i))
          done)
        xs;
      let inv = 1.0 /. Float.max !big 1e-300 in
      Array.iter
        (fun x ->
          for i = 0 to Array.length x - 1 do
            x.(i) <- inv *. x.(i)
          done)
        xs;
      y := Linalg.Mat.scale inv ynext
    end;
    let m_ex = bt_x ~negate:false nz xs in
    let m_red = Linalg.Mat.mul rho_delta !y in
    let denom = Float.max (Linalg.Mat.max_abs m_ex) 1e-300 in
    errs.(jdx) <- Linalg.Mat.dist_max m_ex m_red /. denom
  done;
  errs

let matched_count_scaled ?ctx ?shift ?(rtol = 1e-6) model mna =
  let max_check = (2 * model.Model.order) + 2 in
  let errs = relative_errors_scaled ?ctx ?shift model mna max_check in
  let rec count i = if i < max_check && errs.(i) <= rtol then count (i + 1) else i in
  count 0
