module Mat = Linalg.Mat
module Cmat = Linalg.Cmat
module Cx = Linalg.Cx
module H = Linalg.Hamiltonian

type modal = { lambda : float array; w : Mat.t }

type t = {
  a0 : Mat.t;
  a1 : Mat.t;
  b : Mat.t;
  c : Mat.t;
  origin : float;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
  sym : (Mat.t * Mat.t * Mat.t) option;
  foster : (Complex.t array * Complex.t array) option;
  definite : bool;
  modal : modal option;
}

let order r =
  match r.foster with Some (poles, _) -> Array.length poles | None -> r.a0.Mat.rows

let ports r = r.c.Mat.rows

let near_symmetric m = Mat.is_symmetric ~tol:1e-8 m

let fold ~origin k a1 = if origin = 0.0 then k else Mat.sub k (Mat.scale origin a1)

(* L⁻¹b for all columns at once: row-wise forward substitution that
   skips the zeros of L, so a diagonal k0 (SyMPVL's Δ) costs O(n·m) *)
let lower_solve (l : Mat.t) (b : Mat.t) =
  let n = b.Mat.rows and m = b.Mat.cols in
  let x = Mat.copy b in
  for i = 0 to n - 1 do
    let row = i * m in
    for k = 0 to i - 1 do
      let lik = l.Mat.a.((i * n) + k) in
      if lik <> 0.0 then
        for j = 0 to m - 1 do
          x.Mat.a.(row + j) <- x.Mat.a.(row + j) -. (lik *. x.Mat.a.((k * m) + j))
        done
    done;
    let d = l.Mat.a.((i * n) + i) in
    for j = 0 to m - 1 do
      x.Mat.a.(row + j) <- x.Mat.a.(row + j) /. d
    done
  done;
  x

(* wᵀ(k0 + σk1)⁻¹w = (L⁻¹w)ᵀ(I + σM)⁻¹(L⁻¹w) with k0 = LLᵀ and
   M = L⁻¹k1L⁻ᵀ = QΛQᵀ, so W = QᵀL⁻¹w. M is formed as (L⁻¹(L⁻¹k1)ᵀ)ᵀ:
   at L = I that is k1 itself, bit for bit *)
let modal_form ~k0 ~k1 ~w =
  match Linalg.Chol.factor k0 with
  | exception Linalg.Chol.Not_positive_definite _ -> None
  | ch ->
    let l = Linalg.Chol.l ch in
    let m = Mat.transpose (lower_solve l (Mat.transpose (lower_solve l k1))) in
    let { Linalg.Eig_sym.values; vectors } = Linalg.Eig_sym.decompose m in
    let w = Mat.mul (Mat.transpose vectors) (lower_solve l w) in
    if San.fp () then begin
      San.Fp.check_array ~name:"realisation.modal.lambda" values;
      San.Fp.check_array ~name:"realisation.modal.w" w.Mat.a
    end;
    Some { lambda = values; w }

let congruence ?(definite = false) ~shift ~variable ~gain g c b =
  {
    a0 = g;
    a1 = c;
    b;
    c = Mat.transpose b;
    origin = 0.0;
    shift;
    variable;
    gain;
    sym = (if definite || (near_symmetric g && near_symmetric c) then Some (g, c, b) else None);
    foster = None;
    definite;
    modal = (if definite then modal_form ~k0:g ~k1:c ~w:b else None);
  }

(* Σₖ WₖᵀWₖ·cₖ with cₖ = 1/(1 + σλₖ): one reciprocal per term (the
   [Complex.div] scaling), the upper triangle accumulated and then
   mirrored, so Z is exactly symmetric *)
let modal_eval { lambda; w } sigma =
  let p = w.Mat.cols and a = w.Mat.a in
  let zre = Array.make (p * p) 0.0 and zim = Array.make (p * p) 0.0 in
  let sr = sigma.Complex.re and si = sigma.Complex.im in
  for k = 0 to Array.length lambda - 1 do
    let l = lambda.(k) in
    let dr = 1.0 +. (sr *. l) and di = si *. l in
    if dr = 0.0 && di = 0.0 then raise (Cmat.Singular k);
    let small_im = Float.abs dr >= Float.abs di in
    let r = if small_im then di /. dr else dr /. di in
    let d = if small_im then dr +. (r *. di) else di +. (r *. dr) in
    let cr = if small_im then 1.0 /. d else r /. d in
    let ci = if small_im then -.r /. d else -1.0 /. d in
    let row = k * p in
    for i = 0 to p - 1 do
      let wi = a.(row + i) in
      let ar = wi *. cr and ai = wi *. ci in
      let zi = i * p in
      for j = i to p - 1 do
        let wj = a.(row + j) in
        zre.(zi + j) <- zre.(zi + j) +. (ar *. wj);
        zim.(zi + j) <- zim.(zi + j) +. (ai *. wj)
      done
    done
  done;
  for i = 1 to p - 1 do
    for j = 0 to i - 1 do
      zre.((i * p) + j) <- zre.((j * p) + i);
      zim.((i * p) + j) <- zim.((j * p) + i)
    done
  done;
  if San.fp () then begin
    San.Fp.check_array ~name:"realisation.modal_eval.re" zre;
    San.Fp.check_array ~name:"realisation.modal_eval.im" zim
  end;
  { Cmat.rows = p; cols = p; re = zre; im = zim }

let eval r s =
  let var = match r.variable with Circuit.Mna.S -> s | Circuit.Mna.S_squared -> Cx.(s *: s) in
  let sigma = if r.origin = 0.0 then var else Cx.(var -: re r.origin) in
  let z =
    match (r.foster, r.modal) with
    | Some (poles, residues), _ ->
      (* AWE's scalar pole–residue sum: a modal solve would move its bits *)
      let acc = ref Cx.zero in
      Array.iteri (fun k p -> acc := Cx.(!acc +: (residues.(k) /: (sigma -: p)))) poles;
      let z = Cmat.create 1 1 in
      Cmat.set z 0 0 !acc;
      z
    | None, Some md -> modal_eval md sigma
    | None, None ->
      let k = Cmat.lincomb Cx.one r.a0 sigma r.a1 in
      Cmat.mul (Cmat.of_real r.c) (Cmat.lu_solve_mat (Cmat.lu_factor k) (Cmat.of_real r.b))
  in
  match r.gain with Circuit.Mna.Unit -> z | Circuit.Mna.Times_s -> Cmat.scale s z

let core r = { H.a0 = fold ~origin:r.origin r.a0 r.a1; a1 = r.a1; b = r.b; c = r.c }

let scale_of (pen : H.pencil) =
  let n0 = Mat.max_abs pen.H.a0 and n1 = Mat.max_abs pen.H.a1 in
  if n0 > 0.0 && n1 > 0.0 then n0 /. n1 else 1.0

let freq_scale r = scale_of (core r)

let phys_pencil r =
  H.augment
    ~square_var:(r.variable = Circuit.Mna.S_squared)
    ~times_s:(r.gain = Circuit.Mna.Times_s)
    (core r)

(* a modal realisation's poles are read off its λₖ. Otherwise: finite
   poles of the core pencil, through the same shift-and-invert
   eigensolver the crossing test uses, pre-scaled by the core's own
   frequency scale so the O(1) seeds are meaningful (the augmented
   physical pencil would hide that scale behind its unit coupling
   blocks). A singular a1 pushes part of the spectrum to infinity;
   eigenvalues that come back merely ~huge (> 1e8 in scaled units) are
   that infinity seen through roundoff, not model poles — drop them.
   The seeds skip 0: a model with a pole at DC (singular G, hence a
   shifted expansion) would make the seed-0 inverse blow up, and the
   solver's cutoff relative to the largest inverted eigenvalue would
   then discard every ordinary pole, unstable ones included. *)
let pole_seeds = [| 1.0; -1.0; 0.7320508; -2.2360679; 3.7 |]

let poles r =
  let pen = core r in
  let ws = scale_of pen in
  let var_poles =
    match r.modal with
    | Some { lambda; _ } ->
      (* I + σΛ is singular at σ = −1/λₖ: the same cutoff, in var *)
      Array.to_list lambda
      |> List.map (fun l -> r.origin -. (1.0 /. l))
      |> List.filter (fun v -> Float.abs v <= 1e8 *. ws)
      |> List.map Cx.re
    | None ->
      H.gen_eigenvalues ~seeds:pole_seeds pen.H.a0 (Mat.scale ws pen.H.a1)
      |> Array.to_list
      |> List.filter (fun s -> Cx.abs s <= 1e8)
      |> List.map (fun s -> Cx.smul ws s)
  in
  match r.variable with
  | Circuit.Mna.S -> Array.of_list var_poles
  | Circuit.Mna.S_squared ->
    (* each pole in var = s² is the pair s = ±√var *)
    Array.of_list
      (List.concat_map
         (fun p ->
           let q = Cx.sqrt p in
           [ q; Cx.neg q ])
         var_poles)

let moments r q =
  let k_mat = Mat.add (core r).H.a0 (Mat.scale r.shift r.a1) in
  let fac = Linalg.Lu.factor k_mat in
  let x = ref (Linalg.Lu.solve_mat fac r.b) in
  Array.init q (fun k ->
      if k > 0 then x := Linalg.Lu.solve_mat fac (Mat.mul r.a1 !x);
      Mat.scale (if k land 1 = 1 then -1.0 else 1.0) (Mat.mul r.c !x))

let truncate r k =
  assert (r.foster = None && k >= 1 && k <= order r);
  let sq m = Mat.submatrix m 0 0 k k in
  let rows m = Mat.submatrix m 0 0 k m.Mat.cols in
  {
    r with
    a0 = sq r.a0;
    a1 = sq r.a1;
    b = rows r.b;
    c = Mat.submatrix r.c 0 0 r.c.Mat.rows k;
    sym = Option.map (fun (h0, h1, w) -> (sq h0, sq h1, rows w)) r.sym;
    modal = None;
  }
