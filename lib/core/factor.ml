type t = {
  n : int;
  j : float array;
  definite : bool;
  apply_m_inv : Linalg.Vec.t -> Linalg.Vec.t;
  apply_mt_inv : Linalg.Vec.t -> Linalg.Vec.t;
  solve : Linalg.Vec.t -> Linalg.Vec.t;
  kind : [ `Skyline | `Supernodal | `Dense ];
}

exception Singular of int

(* ------------------------------------------------------------------ *)
(* sparse-backend selection                                             *)

(* Below this size the RCM-skyline path wins on constant factors (and
   keeps small-circuit results bitwise identical to earlier releases);
   from it on, AMD + supernodal is taken outright. *)
let supernodal_threshold = 4096

type plan = [ `Skyline of int array | `Supernodal of int array ]

(* on the general form (unknowns past [nodes] are inductor currents)
   every current is eliminated before its nodes, which cannot break
   down at a real shift s₀ > 0 *)
let supernodal_order ~nodes pattern =
  if nodes < pattern.Sparse.Csr.rows then Sparse.Supernodal.order ~early:nodes pattern
  else Sparse.Supernodal.order pattern

let plan ~nodes pattern : plan =
  if pattern.Sparse.Csr.rows < supernodal_threshold then `Skyline (Sparse.Rcm.order pattern)
  else `Supernodal (supernodal_order ~nodes pattern)

(* P A Pᵀ = L D Lᵀ from either sparse backend: M = Pᵀ L S with
   S = diag(√|D|), J = sign(D). Operators in original coordinates. *)
let of_ldlt ~(kind : [ `Skyline | `Supernodal ]) ~perm ~d ~solve_lower ~solve_lower_t
    ~solve =
  let n = Array.length perm in
  let j = Array.map (fun x -> if x >= 0.0 then 1.0 else -1.0) d in
  let s = Array.map (fun x -> sqrt (Float.abs x)) d in
  let definite = Array.for_all (fun x -> x > 0.0) j in
  let permute x = Array.init n (fun i -> x.(perm.(i))) in
  let unpermute y =
    let out = Array.make n 0.0 in
    for i = 0 to n - 1 do
      out.(perm.(i)) <- y.(i)
    done;
    out
  in
  let apply_m_inv x =
    (* S⁻¹ L⁻¹ P x *)
    let z = solve_lower (permute x) in
    for i = 0 to n - 1 do
      z.(i) <- z.(i) /. s.(i)
    done;
    z
  in
  let apply_mt_inv y =
    (* Pᵀ L⁻ᵀ S⁻¹ y *)
    let z = Array.init n (fun i -> y.(i) /. s.(i)) in
    unpermute (solve_lower_t z)
  in
  let solve b = unpermute (solve (permute b)) in
  {
    n;
    j;
    definite;
    apply_m_inv;
    apply_mt_inv;
    solve;
    kind = (kind :> [ `Skyline | `Supernodal | `Dense ]);
  }

(* K' = TᵀKT = M' J M'ᵀ  =>  K = M J Mᵀ with M = T⁻ᵀ M', so
   M⁻¹ = M'⁻¹ Tᵀ, M⁻ᵀ = T M'⁻ᵀ and K⁻¹ = T K'⁻¹ Tᵀ *)
let congruent ~t ~tt f =
  {
    f with
    apply_m_inv = (fun x -> f.apply_m_inv (tt x));
    apply_mt_inv = (fun y -> t (f.apply_mt_inv y));
    solve = (fun b -> t (f.solve (tt b)));
  }

let of_dense a =
  let n = a.Linalg.Mat.rows in
  Obs.with_span "factor.dense" @@ fun () ->
  match Linalg.Ldlt.factor a with
  | fac ->
    let solve =
      if San.fp () then (fun b ->
        let x = Linalg.Ldlt.solve fac b in
        San.Fp.check_array ~name:"factor.dense_solve" x;
        x)
      else Linalg.Ldlt.solve fac
    in
    {
      n;
      j = Linalg.Ldlt.j_diag fac;
      definite = Linalg.Ldlt.is_definite fac;
      apply_m_inv = Linalg.Ldlt.apply_m_inv fac;
      apply_mt_inv = Linalg.Ldlt.apply_mt_inv fac;
      solve;
      kind = `Dense;
    }
  | exception Linalg.Ldlt.Singular i -> raise (Singular i)
