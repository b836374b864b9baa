type t = {
  n : int;
  j : float array;
  definite : bool;
  m_inv : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  mt_inv : Linalg.Vec.t -> Linalg.Vec.t -> unit;
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
  let check x y =
    if Array.length x <> n || Array.length y <> n || x == y then
      invalid_arg "Factor: operands must be two distinct vectors of the factor's size"
  in
  (* y ← P x and y ← Pᵀ x (annotated: a polymorphic array copy would
     box every entry) *)
  let permute_into (x : Linalg.Vec.t) (y : Linalg.Vec.t) =
    for i = 0 to n - 1 do
      y.(i) <- x.(perm.(i))
    done
  in
  let unpermute_into (x : Linalg.Vec.t) (y : Linalg.Vec.t) =
    for i = 0 to n - 1 do
      y.(perm.(i)) <- x.(i)
    done
  in
  let m_inv x y =
    (* y ← S⁻¹ L⁻¹ P x *)
    check x y;
    permute_into x y;
    solve_lower y;
    for i = 0 to n - 1 do
      y.(i) <- y.(i) /. s.(i)
    done
  in
  let mt_inv x y =
    (* y ← Pᵀ L⁻ᵀ S⁻¹ x, with x as the workspace *)
    check x y;
    for i = 0 to n - 1 do
      x.(i) <- x.(i) /. s.(i)
    done;
    solve_lower_t x;
    unpermute_into x y
  in
  let solve b =
    let x = Array.make n 0.0 and y = Array.make n 0.0 in
    permute_into b x;
    let z = solve x in
    unpermute_into z y;
    y
  in
  {
    n;
    j;
    definite;
    m_inv;
    mt_inv;
    solve;
    kind = (kind :> [ `Skyline | `Supernodal | `Dense ]);
  }

(* K' = TᵀKT = M' J M'ᵀ  =>  K = M J Mᵀ with M = T⁻ᵀ M', so
   M⁻¹ = M'⁻¹ Tᵀ, M⁻ᵀ = T M'⁻ᵀ and K⁻¹ = T K'⁻¹ Tᵀ *)
let congruent ~t ~tt f =
  {
    f with
    m_inv =
      (fun x y ->
        tt x;
        f.m_inv x y);
    mt_inv =
      (fun x y ->
        f.mt_inv x y;
        t y);
    solve =
      (fun b ->
        let x = Array.copy b in
        tt x;
        let y = f.solve x in
        t y;
        y);
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
      m_inv = Linalg.Ldlt.m_inv fac;
      mt_inv = Linalg.Ldlt.mt_inv fac;
      solve;
      kind = `Dense;
    }
  | exception Linalg.Ldlt.Singular i -> raise (Singular i)
