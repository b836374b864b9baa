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

let log_src = Logs.Src.create "sympvl.factor" ~doc:"G = M J Mt factorisation"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* sparse-backend selection                                             *)

type backend = [ `Auto | `Skyline | `Supernodal ]

let backend_of_env () : backend =
  match Sys.getenv_opt "SYMOR_FACTOR" with
  | Some "skyline" -> `Skyline
  | Some "supernodal" -> `Supernodal
  | _ -> `Auto

let backend_override : backend Atomic.t = Atomic.make (backend_of_env ())

let set_backend b = Atomic.set backend_override b

let backend () = Atomic.get backend_override

(* Below this size the RCM-skyline path wins on constant factors (and
   keeps small-circuit results bitwise identical to earlier releases);
   above it the two symbolic phases are compared and the supernodal
   backend must predict a real fill advantage to be picked, since its
   per-column overhead only pays off when the envelope genuinely
   explodes. *)
let supernodal_threshold = 4096

type plan = [ `Skyline of int array | `Supernodal of int array ]

let plan pattern : plan =
  let n = pattern.Sparse.Csr.rows in
  match Atomic.get backend_override with
  | `Skyline -> `Skyline (Sparse.Rcm.order pattern)
  | `Supernodal -> `Supernodal (Sparse.Supernodal.order pattern)
  | `Auto ->
    if n < supernodal_threshold then `Skyline (Sparse.Rcm.order pattern)
    else begin
      let rcm = Sparse.Rcm.order pattern in
      let sky_fill = Sparse.Csr.profile (Sparse.Csr.permute_sym pattern rcm) + n in
      let amd = Sparse.Supernodal.order pattern in
      let super_nnz = Sparse.Etree.predicted_nnz pattern amd in
      if sky_fill > 2 * super_nnz then `Supernodal amd else `Skyline rcm
    end

(* Skyline path: P G Pᵀ = L D Lᵀ, M = Pᵀ L S with S = diag(√|D|),
   J = sign(D). Operators in original coordinates. *)
let of_skyline n perm fac =
  let d = Sparse.Skyline.Real.d fac in
  let j = Array.map (fun x -> if x >= 0.0 then 1.0 else -1.0) d in
  let s = Array.map (fun x -> sqrt (Float.abs x)) d in
  let definite = Array.for_all (fun x -> x > 0.0) j in
  let inv = Array.make n 0 in
  Array.iteri (fun new_i old_i -> inv.(old_i) <- new_i) perm;
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
    let z = Sparse.Skyline.Real.solve_lower fac (permute x) in
    for i = 0 to n - 1 do
      z.(i) <- z.(i) /. s.(i)
    done;
    z
  in
  let apply_mt_inv y =
    (* Pᵀ L⁻ᵀ S⁻¹ y *)
    let z = Array.init n (fun i -> y.(i) /. s.(i)) in
    unpermute (Sparse.Skyline.Real.solve_lower_t fac z)
  in
  let solve b = unpermute (Sparse.Skyline.Real.solve fac (permute b)) in
  { n; j; definite; apply_m_inv; apply_mt_inv; solve; kind = `Skyline }

(* Supernodal path: identical operator algebra, panel kernels behind
   the solves. *)
let of_supernodal n perm fac =
  let d = Sparse.Supernodal.Real.d fac in
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
    let z = Sparse.Supernodal.Real.solve_lower fac (permute x) in
    for i = 0 to n - 1 do
      z.(i) <- z.(i) /. s.(i)
    done;
    z
  in
  let apply_mt_inv y =
    let z = Array.init n (fun i -> y.(i) /. s.(i)) in
    unpermute (Sparse.Supernodal.Real.solve_lower_t fac z)
  in
  let solve b = unpermute (Sparse.Supernodal.Real.solve fac (permute b)) in
  { n; j; definite; apply_m_inv; apply_mt_inv; solve; kind = `Supernodal }

(* K' = TᵀKT = M' J M'ᵀ  =>  K = M J Mᵀ with M = T⁻ᵀ M', so
   M⁻¹ = M'⁻¹ Tᵀ, M⁻ᵀ = T M'⁻ᵀ and K⁻¹ = T K'⁻¹ Tᵀ *)
let congruent ~t ~tt f =
  {
    f with
    apply_m_inv = (fun x -> f.apply_m_inv (tt x));
    apply_mt_inv = (fun y -> t (f.apply_mt_inv y));
    solve = (fun b -> t (f.solve (tt b)));
  }

let of_csr ?(ordering = true) ?pivot_tol a =
  assert (a.Sparse.Csr.rows = a.Sparse.Csr.cols);
  let n = a.Sparse.Csr.rows in
  (* symbolic phase: backend pick + fill-reducing ordering *)
  if Obs.tracing () then Obs.span_begin ~args:[ ("n", Obs.Int n) ] "factor.symbolic";
  let chosen =
    if ordering then plan a else `Skyline (Sparse.Rcm.identity n)
  in
  match chosen with
  | `Skyline perm -> (
    let pa = Sparse.Csr.permute_sym a perm in
    if Obs.tracing () then begin
      Obs.span_end ();
      (* numeric phase: envelope scatter + LDLᵀ recurrence *)
      Obs.span_begin "factor.numeric"
    end;
    match Sparse.Skyline.factor_real ?pivot_tol pa with
    | fac ->
      if Obs.tracing () then begin
        Obs.count "factor.count" 1;
        Obs.count "factor.nnz" (Sparse.Skyline.Real.fill fac);
        Obs.span_end ()
      end;
      of_skyline n perm fac
    | exception Sparse.Skyline.Singular i ->
      if Obs.tracing () then begin
        Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.breakdown";
        Obs.span_end ()
      end;
      raise (Singular i))
  | `Supernodal perm -> (
    let pa = Sparse.Csr.permute_sym a perm in
    let sym = Sparse.Supernodal.symbolic pa in
    if Obs.tracing () then begin
      Obs.span_end ();
      (* numeric phase: panel assembly + supernodal LDLᵀ *)
      Obs.span_begin "factor.numeric"
    end;
    match Sparse.Supernodal.Real.factor ?pivot_tol sym 0.0 with
    | fac ->
      if Obs.tracing () then begin
        Obs.count "factor.count" 1;
        Obs.count "factor.nnz" (Sparse.Supernodal.Real.fill fac);
        Obs.span_end ()
      end;
      of_supernodal n perm fac
    | exception Sparse.Supernodal.Singular i ->
      if Obs.tracing () then begin
        Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.breakdown";
        Obs.span_end ()
      end;
      raise (Singular i))

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

let auto ?ordering a =
  match of_csr ?ordering a with
  | f -> f
  | exception Singular i ->
    Log.warn (fun m ->
        m "sparse pivot breakdown at %d; falling back to dense Bunch-Kaufman" i);
    if Obs.tracing () then begin
      Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.fallback_dense";
      Obs.count "factor.fallback_dense" 1
    end;
    of_dense (Sparse.Csr.to_dense a)

let with_shift ?ordering g c s0 =
  let shifted = if s0 = 0.0 then g else Sparse.Csr.add ~alpha:1.0 ~beta:s0 g c in
  auto ?ordering shifted
