type term = {
  lambda : Complex.t;
  pole : Complex.t;
  residue_l : Complex.t array;
  residue_r : Complex.t array;
}

type t = {
  terms : term list;
  direct : Linalg.Cmat.t;
  p : int;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
}

exception Defective

let physical_pole variable shift lambda =
  (* σ-pole −1/λ mapped to the physical plane *)
  let sigma = Linalg.Cx.(neg (inv lambda)) in
  let shifted = Linalg.Cx.(sigma +: re shift) in
  match variable with
  | Circuit.Mna.S -> shifted
  | Circuit.Mna.S_squared -> Linalg.Cx.sqrt shifted

(* definite case: the realisation's modal form, Z = Σ WₖᵀWₖ/(1 + σλₖ),
   everything real *)
let of_modal (m : Model.t) { Realisation.lambda; w } =
  let p = m.Model.p in
  let lam_scale = Array.fold_left (fun acc l -> Float.max acc (Float.abs l)) 1e-300 lambda in
  let direct = Linalg.Cmat.create p p in
  let terms = ref [] in
  Array.iteri
    (fun k l ->
      let wk = Linalg.Mat.row w k in
      if Float.abs l <= 1e-13 *. lam_scale then
        (* λ ≈ 0: constant contribution WₖᵀWₖ *)
        for i = 0 to p - 1 do
          for jj = 0 to p - 1 do
            Linalg.Cmat.add_to direct i jj (Linalg.Cx.re (wk.(i) *. wk.(jj)))
          done
        done
      else begin
        let lambda = Linalg.Cx.re l and wc = Array.map Linalg.Cx.re wk in
        terms :=
          {
            lambda;
            pole = physical_pole m.Model.variable m.Model.shift lambda;
            residue_l = wc;
            residue_r = wc;
          }
          :: !terms
      end)
    lambda;
  (List.rev !terms, direct)

(* indefinite case: complex eigenvalues of T via QR, eigenvectors via
   one step of inverse iteration, Δ-bilinear normalisation *)
let of_indefinite (m : Model.t) =
  let n = m.Model.order in
  let p = m.Model.p in
  let eigs = Linalg.Eig_gen.eigenvalues m.Model.t_mat in
  let t_c = Linalg.Cmat.of_real m.Model.t_mat in
  let delta_c = Linalg.Cmat.of_real m.Model.delta in
  let t_norm = Float.max (Linalg.Mat.max_abs m.Model.t_mat) 1e-300 in
  let lam_scale =
    Array.fold_left (fun acc l -> Float.max acc (Linalg.Cx.abs l)) 1e-300 eigs
  in
  let rng = Linalg.Rng.create 20240531 in
  let eigvec mu =
    (* inverse iteration on (T − (μ+ε)I) *)
    let eps = Linalg.Cx.re (1e-10 *. t_norm) in
    let shifted =
      Linalg.Cmat.init n n (fun i jj ->
          let base = Linalg.Cmat.get t_c i jj in
          if i = jj then Linalg.Cx.(base -: mu -: eps) else base)
    in
    let lu =
      match Linalg.Cmat.lu_factor shifted with
      | lu -> lu
      | exception Linalg.Cmat.Singular _ -> raise Defective
    in
    let x =
      ref
        (Array.init n (fun _ ->
             Linalg.Cx.make (Linalg.Rng.gaussian rng) (Linalg.Rng.gaussian rng)))
    in
    for _it = 1 to 3 do
      let y = Linalg.Cmat.lu_solve_vec lu !x in
      let nrm =
        sqrt (Array.fold_left (fun acc z -> acc +. (Linalg.Cx.abs z ** 2.0)) 0.0 y)
      in
      if nrm = 0.0 || not (Float.is_finite nrm) then raise Defective;
      x := Array.map (fun z -> Linalg.Cx.smul (1.0 /. nrm) z) y
    done;
    (* residual check *)
    let tx = Linalg.Cmat.mul_vec t_c !x in
    let worst = ref 0.0 in
    Array.iteri
      (fun i txi ->
        let r = Linalg.Cx.(txi -: (mu *: !x.(i))) in
        worst := Float.max !worst (Linalg.Cx.abs r))
      tx;
    if !worst > 1e-6 *. t_norm then raise Defective;
    !x
  in
  let rho_c = Linalg.Cmat.of_real m.Model.rho in
  let direct = Linalg.Cmat.create p p in
  let terms = ref [] in
  Array.iter
    (fun mu ->
      let x = eigvec mu in
      let dx = Linalg.Cmat.mul_vec delta_c x in
      (* d = xᵀ Δ x (bilinear, not Hermitian) *)
      let d = ref Linalg.Cx.zero in
      Array.iteri (fun i xi -> d := Linalg.Cx.(!d +: (xi *: dx.(i)))) x;
      if Linalg.Cx.abs !d < 1e-8 then raise Defective;
      (* l = ρᵀ Δ x ∈ ℂᵖ *)
      let l =
        Array.init p (fun c ->
            let s = ref Linalg.Cx.zero in
            for i = 0 to n - 1 do
              s := Linalg.Cx.(!s +: (Linalg.Cmat.get rho_c i c *: dx.(i)))
            done;
            !s)
      in
      let r = Array.map (fun li -> Linalg.Cx.(li /: !d)) l in
      if Linalg.Cx.abs mu <= 1e-13 *. lam_scale then
        for i = 0 to p - 1 do
          for jj = 0 to p - 1 do
            Linalg.Cmat.add_to direct i jj Linalg.Cx.(l.(i) *: r.(jj))
          done
        done
      else
        terms :=
          {
            lambda = mu;
            pole = physical_pole m.Model.variable m.Model.shift mu;
            residue_l = l;
            residue_r = r;
          }
          :: !terms)
    eigs;
  (List.rev !terms, direct)

let of_model (m : Model.t) =
  let terms, direct =
    match m.Model.real.Realisation.form with
    | Realisation.Modal md -> of_modal m md
    | Realisation.Band _ | Realisation.Hess _ -> of_indefinite m
  in
  {
    terms;
    direct;
    p = m.Model.p;
    shift = m.Model.shift;
    variable = m.Model.variable;
    gain = m.Model.gain;
  }

let eval t s =
  let var =
    match t.variable with
    | Circuit.Mna.S -> s
    | Circuit.Mna.S_squared -> Linalg.Cx.(s *: s)
  in
  let sigma = Linalg.Cx.(var -: re t.shift) in
  let z = Linalg.Cmat.copy t.direct in
  List.iter
    (fun term ->
      let denom = Linalg.Cx.(one +: (sigma *: term.lambda)) in
      let w = Linalg.Cx.inv denom in
      for i = 0 to t.p - 1 do
        for jj = 0 to t.p - 1 do
          Linalg.Cmat.add_to z i jj
            Linalg.Cx.(w *: term.residue_l.(i) *: term.residue_r.(jj))
        done
      done)
    t.terms;
  match t.gain with
  | Circuit.Mna.Unit -> z
  | Circuit.Mna.Times_s -> Linalg.Cmat.scale s z

let pole_scale t =
  List.fold_left
    (fun acc term -> Float.max acc (Linalg.Cx.abs term.pole))
    1.0 t.terms

let is_stable_term scale term = term.pole.Complex.re <= 1e-9 *. scale

let is_stable t =
  let scale = pole_scale t in
  List.for_all (is_stable_term scale) t.terms

let require_real_time_domain t =
  if t.variable <> Circuit.Mna.S || t.shift <> 0.0 || t.gain <> Circuit.Mna.Unit then
    invalid_arg "Postprocess: time-domain form needs an s-variable model at shift 0";
  List.iter
    (fun term ->
      if Float.abs term.lambda.Complex.im > 1e-9 *. Linalg.Cx.abs term.lambda then
        invalid_arg "Postprocess: complex poles — no real closed form")
    t.terms

let step_response t time =
  require_real_time_domain t;
  let out =
    Linalg.Mat.init t.p t.p (fun i j -> (Linalg.Cmat.get t.direct i j).Complex.re)
  in
  List.iter
    (fun term ->
      let lam = term.lambda.Complex.re in
      let w = if lam <= 0.0 then 1.0 else 1.0 -. exp (-.time /. lam) in
      for i = 0 to t.p - 1 do
        for j = 0 to t.p - 1 do
          let r = Linalg.Cx.(term.residue_l.(i) *: term.residue_r.(j)) in
          Linalg.Mat.add_to out i j (w *. r.Complex.re)
        done
      done)
    t.terms;
  out

let stabilized t =
  let scale = pole_scale t in
  let keep, drop = List.partition (is_stable_term scale) t.terms in
  ({ t with terms = keep }, List.length drop)
