module Mat = Linalg.Mat
module Cmat = Linalg.Cmat
module Cx = Linalg.Cx
module H = Linalg.Hamiltonian

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
}

let order r =
  match r.foster with Some (poles, _) -> Array.length poles | None -> r.a0.Mat.rows

let ports r = r.c.Mat.rows

let near_symmetric m = Mat.is_symmetric ~tol:1e-8 m

let fold ~origin k a1 = if origin = 0.0 then k else Mat.sub k (Mat.scale origin a1)

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
  }

let eval r s =
  let var = match r.variable with Circuit.Mna.S -> s | Circuit.Mna.S_squared -> Cx.(s *: s) in
  let sigma = if r.origin = 0.0 then var else Cx.(var -: re r.origin) in
  let z =
    match r.foster with
    | Some (poles, residues) ->
      (* AWE's scalar pole–residue sum: a modal solve would move its bits *)
      let acc = ref Cx.zero in
      Array.iteri (fun k p -> acc := Cx.(!acc +: (residues.(k) /: (sigma -: p)))) poles;
      let z = Cmat.create 1 1 in
      Cmat.set z 0 0 !acc;
      z
    | None ->
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

(* finite poles of the core pencil, through the same shift-and-invert
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
  }
