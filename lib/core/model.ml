module Mat = Linalg.Mat

type t = {
  t_mat : Linalg.Mat.t;
  delta : Linalg.Mat.t;
  rho : Linalg.Mat.t;
  order : int;
  p : int;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
  definite : bool;
  deflations : int;
  look_ahead_steps : int;
  exhausted : bool;
  real : Realisation.t;
}

let make ~t_mat ~delta ~rho ~shift ~variable ~gain ~definite ~deflations ~look_ahead_steps
    ~exhausted =
  let n = t_mat.Mat.rows in
  (* Δ-congruence: Z = ρᵀΔ(I + σT)⁻¹ρ = (Δρ)ᵀ[Δ(I − s₀T) + var·ΔT]⁻¹(Δρ),
     a symmetric sandwich whenever Δ and ΔT come out symmetric (exact
     arithmetic guarantees both; roundoff is checked) *)
  let dt = Mat.mul delta t_mat and drho = Mat.mul delta rho in
  let sym =
    if Realisation.near_symmetric delta && Realisation.near_symmetric dt then
      Some (Realisation.fold ~origin:shift delta dt, dt, drho)
    else None
  in
  (* J = I: Δ is the identity up to roundoff, so (Δ, ΔT, Δρ) is a
     definite triple about s₀ *)
  let a0 = Mat.identity n and c = Mat.mul (Mat.transpose rho) delta in
  {
    t_mat;
    delta;
    rho;
    order = n;
    p = rho.Mat.cols;
    shift;
    variable;
    gain;
    definite;
    deflations;
    look_ahead_steps;
    exhausted;
    real =
      {
        Realisation.a0;
        a1 = t_mat;
        b = rho;
        c;
        origin = shift;
        shift;
        variable;
        gain;
        sym;
        definite = definite && shift = 0.0;
        form =
          (match if definite then Realisation.modal_form ~k0:delta ~k1:dt ~w:drho else None with
          | Some md -> Realisation.Modal md
          | None -> Realisation.general_form ~a0 ~a1:t_mat ~b:rho ~c);
      };
  }

let moments m k =
  let rho_delta = Linalg.Mat.mul (Linalg.Mat.transpose m.rho) m.delta in
  let acc = ref (Linalg.Mat.copy m.rho) in
  Array.init k (fun i ->
      if i > 0 then acc := Linalg.Mat.mul m.t_mat !acc;
      let mk = Linalg.Mat.mul rho_delta !acc in
      if i mod 2 = 0 then mk else Linalg.Mat.scale (-1.0) mk)

let truncate m order =
  assert (order >= 1 && order <= m.order);
  make
    ~t_mat:(Mat.submatrix m.t_mat 0 0 order order)
    ~delta:(Mat.submatrix m.delta 0 0 order order)
    ~rho:(Mat.submatrix m.rho 0 0 order m.p)
    ~shift:m.shift ~variable:m.variable ~gain:m.gain ~definite:m.definite
    ~deflations:m.deflations ~look_ahead_steps:m.look_ahead_steps ~exhausted:m.exhausted
