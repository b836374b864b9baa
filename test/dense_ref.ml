(* Dense reference for [Realisation.eval]: Z = gain·c·(a0 + σ·a1)⁻¹·b
   with σ = var − origin, by one dense complex LU of the whole pencil
   per point (O(nx³)). The model-eval tests compare the modal and
   Hessenberg arms against it. *)

open Linalg
module R = Sympvl.Realisation

let sigma_of (r : R.t) s =
  let var = match r.R.variable with Circuit.Mna.S -> s | Circuit.Mna.S_squared -> Cx.(s *: s) in
  Cx.(var -: re r.R.origin)

let with_gain (r : R.t) s z =
  match r.R.gain with Circuit.Mna.Unit -> z | Circuit.Mna.Times_s -> Cmat.scale s z

let eval (r : R.t) s =
  let k = Cmat.lincomb Cx.one r.R.a0 (sigma_of r s) r.R.a1 in
  with_gain r s
    (Cmat.mul (Cmat.of_real r.R.c) (Cmat.lu_solve_mat (Cmat.lu_factor k) (Cmat.of_real r.R.b)))

let rel_dist a b = Cmat.dist_max a b /. Float.max (Cmat.max_abs b) 1e-300

(* 17 points, 1 kHz to 100 GHz, half a decade apart *)
let freqs = Array.init 17 (fun k -> 10.0 ** (3.0 +. (0.5 *. float_of_int k)))

(* ------------------------------------------------------------------ *)
(* The dense LU, refined in double-double                              *)

(* error-free transformations: a + b = s + e and a·b = p + e exactly *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  (s, (a -. (s -. bb)) +. (b -. bb))

let two_prod a b =
  let p = a *. b in
  (p, Float.fma a b (-.p))

(* (hi, lo) + x·y, to about twice the working precision *)
let acc (hi, lo) x y =
  let p, pe = two_prod x y in
  let s, se = two_sum hi p in
  (s, lo +. pe +. se)

let dd_sum (hi, lo) = hi +. lo

(* Z = gain·c·X with (a0 + σ·a1)·X = b solved by the dense LU and
   refined four times: each residual b − a0·X − σ·(a1·X) is summed in
   double-double from the unrounded a0 and a1, so X converges to the
   exact solution wherever cond(a0 + σ·a1)·ε < 1, and Z is summed in
   double-double too. [None] where it does not converge (the last
   correction above 1e-8 of X, or a non-finite X): no evaluation in
   double precision means anything there *)
let refined (r : R.t) s =
  let sigma = sigma_of r s in
  let sr = sigma.Complex.re and si = sigma.Complex.im in
  let n = r.R.a0.Mat.rows and p = r.R.b.Mat.cols in
  let lu = Cmat.lu_factor (Cmat.lincomb Cx.one r.R.a0 sigma r.R.a1) in
  let x = Cmat.lu_solve_mat lu (Cmat.of_real r.R.b) in
  let last = ref Float.infinity in
  for _ = 1 to 4 do
    let res = Cmat.create n p in
    for i = 0 to n - 1 do
      for j = 0 to p - 1 do
        let rr = ref (Mat.get r.R.b i j, 0.0) and ri = ref (0.0, 0.0) in
        for l = 0 to n - 1 do
          let a0 = Mat.get r.R.a0 i l and a1 = Mat.get r.R.a1 i l in
          let xr = x.Cmat.re.((l * p) + j) and xi = x.Cmat.im.((l * p) + j) in
          rr := acc !rr (-.a0) xr;
          ri := acc !ri (-.a0) xi;
          (* σ·a1·x with a1·x split exactly into (yh + yl) + i(zh + zl) *)
          let yh, yl = two_prod a1 xr and zh, zl = two_prod a1 xi in
          rr := acc (acc (acc (acc !rr (-.sr) yh) (-.sr) yl) si zh) si zl;
          ri := acc (acc (acc (acc !ri (-.sr) zh) (-.sr) zl) (-.si) yh) (-.si) yl
        done;
        res.Cmat.re.((i * p) + j) <- dd_sum !rr;
        res.Cmat.im.((i * p) + j) <- dd_sum !ri
      done
    done;
    let d = Cmat.lu_solve_mat lu res in
    last := Cmat.max_abs d;
    for q = 0 to (n * p) - 1 do
      x.Cmat.re.(q) <- x.Cmat.re.(q) +. d.Cmat.re.(q);
      x.Cmat.im.(q) <- x.Cmat.im.(q) +. d.Cmat.im.(q)
    done
  done;
  let q = r.R.c.Mat.rows in
  let z = Cmat.create q p in
  let xmax = Cmat.max_abs x in
  for a = 0 to q - 1 do
    for j = 0 to p - 1 do
      let zr = ref (0.0, 0.0) and zi = ref (0.0, 0.0) in
      for l = 0 to n - 1 do
        zr := acc !zr (Mat.get r.R.c a l) x.Cmat.re.((l * p) + j);
        zi := acc !zi (Mat.get r.R.c a l) x.Cmat.im.((l * p) + j)
      done;
      z.Cmat.re.((a * p) + j) <- dd_sum !zr;
      z.Cmat.im.((a * p) + j) <- dd_sum !zi
    done
  done;
  if Float.is_finite xmax && !last <= 1e-8 *. xmax then Some (with_gain r s z) else None

let abs_mat (m : Mat.t) = Mat.init m.Mat.rows m.Mat.cols (fun i j -> Float.abs (Mat.get m i j))

let abs_cmat (m : Cmat.t) = Mat.init m.Cmat.rows m.Cmat.cols (fun i j -> Cx.abs (Cmat.get m i j))

(* nx·ε·‖|c|·|K⁻¹|·(|K|·|X| + |b|)‖ (max norm, gain applied) with
   K = a0 + σ·a1 and X = K⁻¹·b: to first order, what an evaluation
   whose every step perturbs each entry of K and b by nx·ε of itself
   (a componentwise backward-stable solve, as a dense LU with partial
   pivoting is in practice) may be off by. Unlike a normwise bound it
   does not grow with the pencil's grading *)
let skeel_bound (r : R.t) s =
  let k = Cmat.lincomb Cx.one r.R.a0 (sigma_of r s) r.R.a1 in
  let n = k.Cmat.rows in
  let lu = Cmat.lu_factor k in
  let kinv = Cmat.lu_solve_mat lu (Cmat.of_real (Mat.identity n)) in
  let x = Cmat.lu_solve_mat lu (Cmat.of_real r.R.b) in
  let m =
    Mat.mul
      (Mat.mul (abs_mat r.R.c) (abs_cmat kinv))
      (Mat.add (Mat.mul (abs_cmat k) (abs_cmat x)) (abs_mat r.R.b))
  in
  let gain = match r.R.gain with Circuit.Mna.Unit -> 1.0 | Circuit.Mna.Times_s -> Cx.abs s in
  float_of_int n *. epsilon_float *. gain *. Mat.max_abs m
