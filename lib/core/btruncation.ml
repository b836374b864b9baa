type t = { real : Realisation.t; hsv : Linalg.Vec.t; error_bound : float }

exception Not_definite

let reduce ~order (m : Circuit.Mna.t) =
  if m.Circuit.Mna.variable <> Circuit.Mna.S || m.Circuit.Mna.gain <> Circuit.Mna.Unit
  then raise Not_definite;
  let n = m.Circuit.Mna.n in
  let gd = Sparse.Csr.to_dense m.Circuit.Mna.g in
  let cd = Sparse.Csr.to_dense m.Circuit.Mna.c in
  let lc =
    match Linalg.Chol.factor cd with
    | f -> f
    | exception Linalg.Chol.Not_positive_definite _ -> raise Not_definite
  in
  (* A = Lᶜ⁻¹ G Lᶜ⁻ᵀ, B̃ = Lᶜ⁻¹ B *)
  let a =
    Linalg.Mat.of_cols
      (List.init n (fun j ->
           let col = Linalg.Chol.solve_lower lc (Linalg.Mat.col gd j) in
           col))
  in
  (* of_cols above gives Lᶜ⁻¹G; finish the congruence column-wise:
     A = (Lᶜ⁻¹ (Lᶜ⁻¹ G)ᵀ)ᵀ *)
  let a =
    let half_t = Linalg.Mat.transpose a in
    Linalg.Mat.of_cols
      (List.init n (fun j -> Linalg.Chol.solve_lower lc (Linalg.Mat.col half_t j)))
  in
  let a = Linalg.Mat.sym_part a in
  (match Linalg.Eig_sym.min_eigenvalue a with
  | e when e > 0.0 -> ()
  | _ -> raise Not_definite);
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let btilde =
    Linalg.Mat.of_cols
      (List.init p (fun j -> Linalg.Chol.solve_lower lc (Linalg.Mat.col m.Circuit.Mna.b j)))
  in
  (* Lyapunov: A P + P A = B̃B̃ᵀ via the eigenbasis of A *)
  let { Linalg.Eig_sym.values = lam; vectors = u } = Linalg.Eig_sym.decompose a in
  let ub = Linalg.Mat.mul (Linalg.Mat.transpose u) btilde in
  let w = Linalg.Mat.mul ub (Linalg.Mat.transpose ub) in
  let ptilde =
    Linalg.Mat.init n n (fun i j -> Linalg.Mat.get w i j /. (lam.(i) +. lam.(j)))
  in
  let gram = Linalg.Mat.congruence (Linalg.Mat.transpose u) ptilde in
  (* symmetric system: P = Q, so the Hankel singular values are the
     eigenvalues of P and the balancing transform is orthogonal *)
  let { Linalg.Eig_sym.values = sig_asc; vectors = wvec } = Linalg.Eig_sym.decompose gram in
  let hsv = Linalg.Vec.init n (fun i -> Float.max sig_asc.(n - 1 - i) 0.0) in
  let order = min order n in
  let v =
    Linalg.Mat.of_cols
      (List.init order (fun k -> Linalg.Mat.col wvec (n - 1 - k)))
  in
  let ahat = Linalg.Mat.congruence v a in
  let bhat = Linalg.Mat.mul (Linalg.Mat.transpose v) btilde in
  let tail = ref 0.0 in
  for k = order to n - 1 do
    tail := !tail +. hsv.(k)
  done;
  {
    real =
      Realisation.congruence ~definite:true ~shift:0.0 ~variable:Circuit.Mna.S
        ~gain:Circuit.Mna.Unit ahat (Linalg.Mat.identity order) bhat;
    hsv;
    error_bound = 2.0 *. !tail;
  }
