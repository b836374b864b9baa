(* Unit and property tests for the dense linear-algebra substrate. *)

let check_float = Alcotest.(check (float 1e-9))

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Vec                                                                *)

let test_vec_basic () =
  let x = Linalg.Vec.of_list [ 1.0; 2.0; 3.0 ] in
  let y = Linalg.Vec.of_list [ 4.0; -1.0; 0.5 ] in
  check_float "dot" 3.5 (Linalg.Vec.dot x y);
  check_float "norm2" (sqrt 14.0) (Linalg.Vec.norm2 x);
  check_float "norm_inf" 4.0 (Linalg.Vec.norm_inf y);
  let z = Linalg.Vec.add x y in
  check_float "add" 5.0 z.(0);
  Linalg.Vec.axpy 2.0 x y;
  check_float "axpy" 6.0 y.(0);
  Alcotest.(check int) "max_abs_index" 2 (Linalg.Vec.max_abs_index y)

let test_vec_dot3 () =
  let x = Linalg.Vec.of_list [ 1.0; 2.0 ] in
  let d = Linalg.Vec.of_list [ -1.0; 1.0 ] in
  check_float "J-weighted dot" 3.0 (Linalg.Vec.dot3 x d x)

let test_vec_basis () =
  let e = Linalg.Vec.basis 4 2 in
  check_float "basis one" 1.0 e.(2);
  check_float "basis zero" 0.0 e.(0)

(* ------------------------------------------------------------------ *)
(* Mat                                                                *)

let test_mat_mul () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Linalg.Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Linalg.Mat.mul a b in
  check_float "c00" 19.0 (Linalg.Mat.get c 0 0);
  check_float "c01" 22.0 (Linalg.Mat.get c 0 1);
  check_float "c10" 43.0 (Linalg.Mat.get c 1 0);
  check_float "c11" 50.0 (Linalg.Mat.get c 1 1)

let test_mat_transpose_vec () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let x = Linalg.Vec.of_list [ 1.0; 1.0 |> Fun.id; -1.0 ] in
  let y = Linalg.Mat.mul_vec a x in
  check_float "mul_vec" 0.0 y.(0);
  check_float "mul_vec2" 3.0 y.(1);
  let z = Linalg.Mat.mul_trans_vec a (Linalg.Vec.of_list [ 1.0; -1.0 ]) in
  check_float "mul_trans_vec" (-3.0) z.(0);
  let at = Linalg.Mat.transpose a in
  Alcotest.(check int) "transpose rows" 3 at.Linalg.Mat.rows;
  check_float "transpose entry" 6.0 (Linalg.Mat.get at 2 1)

let test_mat_congruence () =
  let rng = Linalg.Rng.create 7 in
  let a = Linalg.Mat.random_symmetric rng 5 in
  let v = Linalg.Mat.random rng 5 3 in
  let c = Linalg.Mat.congruence v a in
  Alcotest.(check bool) "congruence of symmetric is symmetric" true
    (Linalg.Mat.is_symmetric ~tol:1e-10 c)

let test_mat_is_symmetric () =
  let m = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  Alcotest.(check bool) "symmetric" true (Linalg.Mat.is_symmetric m);
  Linalg.Mat.set m 0 1 2.5;
  Alcotest.(check bool) "asymmetric" false (Linalg.Mat.is_symmetric m)

(* ------------------------------------------------------------------ *)
(* LU                                                                 *)

let test_lu_solve () =
  let a =
    Linalg.Mat.of_arrays
      [| [| 2.0; 1.0; 1.0 |]; [| 4.0; -6.0; 0.0 |]; [| -2.0; 7.0; 2.0 |] |]
  in
  let b = Linalg.Vec.of_list [ 5.0; -2.0; 9.0 ] in
  let x = Linalg.Lu.solve a b in
  let r = Linalg.Vec.sub (Linalg.Mat.mul_vec a x) b in
  checkf "residual" ~tol:1e-12 0.0 (Linalg.Vec.norm_inf r)

let test_lu_det () =
  let a = Linalg.Mat.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  checkf "det" ~tol:1e-12 12.0 (Linalg.Lu.det (Linalg.Lu.factor a))

let test_lu_inverse_random () =
  let rng = Linalg.Rng.create 42 in
  for _trial = 1 to 5 do
    let a =
      Linalg.Mat.add (Linalg.Mat.random rng 8 8)
        (Linalg.Mat.scale 4.0 (Linalg.Mat.identity 8))
    in
    let ai = Linalg.Lu.inverse a in
    let eye = Linalg.Mat.mul a ai in
    checkf "a * a⁻¹ = I" ~tol:1e-10 0.0
      (Linalg.Mat.dist_max eye (Linalg.Mat.identity 8))
  done

let test_lu_singular () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular raises" (Linalg.Lu.Singular 1) (fun () ->
      ignore (Linalg.Lu.factor a))

(* ------------------------------------------------------------------ *)
(* Cholesky                                                           *)

let test_chol_roundtrip () =
  let rng = Linalg.Rng.create 3 in
  let a = Linalg.Mat.random_spd rng 10 in
  let f = Linalg.Chol.factor a in
  let l = Linalg.Chol.l f in
  let llt = Linalg.Mat.mul l (Linalg.Mat.transpose l) in
  checkf "LLᵀ = A" ~tol:1e-9 0.0 (Linalg.Mat.dist_max llt a)

let test_chol_solve () =
  let rng = Linalg.Rng.create 4 in
  let a = Linalg.Mat.random_spd rng 12 in
  let b = Linalg.Vec.init 12 (fun i -> float_of_int (i + 1)) in
  let x = Linalg.Chol.solve (Linalg.Chol.factor a) b in
  checkf "residual" ~tol:1e-8 0.0
    (Linalg.Vec.dist_inf (Linalg.Mat.mul_vec a x) b)

let test_chol_rejects_indefinite () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  Alcotest.check_raises "not SPD" (Linalg.Chol.Not_positive_definite 1) (fun () ->
      ignore (Linalg.Chol.factor a))

(* ------------------------------------------------------------------ *)
(* LDLᵀ (Bunch–Kaufman) and the M J Mᵀ split                           *)

let mjmt f n =
  (* reconstruct M J Mᵀ from the factor object *)
  let m = Linalg.Ldlt.m_dense f in
  let j = Linalg.Ldlt.j_diag f in
  let mj =
    Linalg.Mat.init n n (fun i k -> Linalg.Mat.get m i k *. j.(k))
  in
  Linalg.Mat.mul mj (Linalg.Mat.transpose m)

let test_ldlt_spd () =
  let rng = Linalg.Rng.create 5 in
  let a = Linalg.Mat.random_spd rng 9 in
  let f = Linalg.Ldlt.factor a in
  Alcotest.(check bool) "definite" true (Linalg.Ldlt.is_definite f);
  checkf "M J Mᵀ = A" ~tol:1e-8 0.0 (Linalg.Mat.dist_max (mjmt f 9) a)

let test_ldlt_indefinite () =
  let rng = Linalg.Rng.create 6 in
  for _trial = 1 to 8 do
    let a = Linalg.Mat.random_symmetric rng 11 in
    let f = Linalg.Ldlt.factor a in
    checkf "M J Mᵀ = A (indef)" ~tol:1e-8 0.0 (Linalg.Mat.dist_max (mjmt f 11) a)
  done

let test_ldlt_solve () =
  let rng = Linalg.Rng.create 8 in
  for _trial = 1 to 8 do
    let a = Linalg.Mat.random_symmetric rng 10 in
    let b = Linalg.Vec.init 10 (fun i -> sin (float_of_int i)) in
    let f = Linalg.Ldlt.factor a in
    let x = Linalg.Ldlt.solve f b in
    checkf "residual" ~tol:1e-8 0.0
      (Linalg.Vec.dist_inf (Linalg.Mat.mul_vec a x) b)
  done

let test_ldlt_inertia () =
  (* diag(3, -2, 5, -7, 1e-0) has inertia (3, 2) *)
  let a = Linalg.Mat.diag (Linalg.Vec.of_list [ 3.0; -2.0; 5.0; -7.0; 1.0 ]) in
  let p, n = Linalg.Ldlt.inertia (Linalg.Ldlt.factor a) in
  Alcotest.(check (pair int int)) "inertia" (3, 2) (p, n)

let test_ldlt_saddle_structure () =
  (* MNA-like saddle point: [[K, Aᵀ]; [A, 0]] forces 2×2 pivots *)
  let a =
    Linalg.Mat.of_arrays
      [|
        [| 2.0; 0.0; 1.0; 0.0 |];
        [| 0.0; 3.0; 0.0; 1.0 |];
        [| 1.0; 0.0; 0.0; 0.0 |];
        [| 0.0; 1.0; 0.0; 0.0 |];
      |]
  in
  let f = Linalg.Ldlt.factor a in
  checkf "M J Mᵀ = A (saddle)" ~tol:1e-10 0.0 (Linalg.Mat.dist_max (mjmt f 4) a);
  let p, n = Linalg.Ldlt.inertia f in
  Alcotest.(check (pair int int)) "saddle inertia" (2, 2) (p, n)

let test_ldlt_apply_m_consistency () =
  let rng = Linalg.Rng.create 9 in
  let a = Linalg.Mat.random_symmetric rng 7 in
  let f = Linalg.Ldlt.factor a in
  let x = Linalg.Vec.init 7 (fun i -> cos (float_of_int i)) in
  (* M⁻¹ (M x) = x *)
  let y = Linalg.Ldlt.apply_m_inv f (Linalg.Ldlt.apply_m f x) in
  checkf "M⁻¹ M = I" ~tol:1e-9 0.0 (Linalg.Vec.dist_inf x y);
  (* Mᵀ M⁻ᵀ x = x : check M⁻ᵀ against dense transpose solve *)
  let md = Linalg.Ldlt.m_dense f in
  let z = Linalg.Ldlt.apply_mt_inv f x in
  let back = Linalg.Mat.mul_trans_vec md z in
  checkf "M⁻ᵀ consistent" ~tol:1e-8 0.0 (Linalg.Vec.dist_inf x back)

let test_ldlt_singular_raises () =
  let a = Linalg.Mat.create 3 3 in
  Alcotest.(check bool) "singular raises" true
    (try
       ignore (Linalg.Ldlt.factor a);
       false
     with Linalg.Ldlt.Singular _ -> true)

(* ------------------------------------------------------------------ *)
(* QR                                                                 *)

let test_qr_roundtrip () =
  let rng = Linalg.Rng.create 10 in
  let a = Linalg.Mat.random rng 9 5 in
  let f = Linalg.Qr.factor a in
  let q = Linalg.Qr.q_thin f and r = Linalg.Qr.r f in
  checkf "QR = A" ~tol:1e-9 0.0 (Linalg.Mat.dist_max (Linalg.Mat.mul q r) a);
  checkf "QᵀQ = I" ~tol:1e-9 0.0
    (Linalg.Mat.dist_max (Linalg.Mat.gram q) (Linalg.Mat.identity 5))

let test_qr_least_squares () =
  (* overdetermined fit of y = 2x + 1 *)
  let a = Linalg.Mat.of_arrays [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let b = Linalg.Vec.of_list [ 1.0; 3.0; 5.0 ] in
  let x = Linalg.Qr.solve_ls (Linalg.Qr.factor a) b in
  checkf "intercept" ~tol:1e-10 1.0 x.(0);
  checkf "slope" ~tol:1e-10 2.0 x.(1)

let test_qr_orthonormalize_rank () =
  let a =
    Linalg.Mat.of_arrays
      [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 0.0; 1.0 |]; [| 1.0; 2.0; 1.0 |] |]
  in
  (* column 1 = 2 × column 0 → rank 2 *)
  let q, rank = Linalg.Qr.orthonormalize a in
  Alcotest.(check int) "rank" 2 rank;
  checkf "orthonormal" ~tol:1e-10 0.0
    (Linalg.Mat.dist_max (Linalg.Mat.gram q) (Linalg.Mat.identity 2))

(* ------------------------------------------------------------------ *)
(* Symmetric eigendecomposition                                       *)

let test_eig_sym_small () =
  let a = Linalg.Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let { Linalg.Eig_sym.values; _ } = Linalg.Eig_sym.decompose a in
  checkf "λ₀" ~tol:1e-12 1.0 values.(0);
  checkf "λ₁" ~tol:1e-12 3.0 values.(1)

let test_eig_sym_reconstruct () =
  let rng = Linalg.Rng.create 11 in
  for n = 1 to 8 do
    let a = Linalg.Mat.random_symmetric rng n in
    let { Linalg.Eig_sym.values; vectors } = Linalg.Eig_sym.decompose a in
    let recon =
      Linalg.Mat.mul vectors
        (Linalg.Mat.mul (Linalg.Mat.diag values) (Linalg.Mat.transpose vectors))
    in
    checkf "QΛQᵀ = A" ~tol:1e-8 0.0 (Linalg.Mat.dist_max recon a);
    checkf "QᵀQ = I" ~tol:1e-9 0.0
      (Linalg.Mat.dist_max (Linalg.Mat.gram vectors) (Linalg.Mat.identity n))
  done

let test_eig_sym_spd_positive () =
  let rng = Linalg.Rng.create 12 in
  let a = Linalg.Mat.random_spd rng 15 in
  let v = Linalg.Eig_sym.values a in
  Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x > 0.0) v)

let test_eig_tridiag () =
  (* second-difference matrix: known eigenvalues 2 - 2cos(kπ/(n+1)) *)
  let n = 12 in
  let d = Linalg.Vec.init n (fun _ -> 2.0) in
  let e = Linalg.Vec.init (n - 1) (fun _ -> -1.0) in
  let { Linalg.Eig_sym.values; _ } = Linalg.Eig_sym.tridiag d e in
  for k = 1 to n do
    let expected =
      2.0 -. (2.0 *. cos (Float.pi *. float_of_int k /. float_of_int (n + 1)))
    in
    checkf (Printf.sprintf "λ%d" k) ~tol:1e-10 expected values.(k - 1)
  done

(* ------------------------------------------------------------------ *)
(* General eigenvalues                                                *)

let sort_cx a =
  let b = Array.copy a in
  Array.sort
    (fun x y ->
      match Float.compare x.Complex.re y.Complex.re with
      | 0 -> Float.compare x.Complex.im y.Complex.im
      | c -> c)
    b;
  b

let test_eig_gen_real_spectrum () =
  let a =
    Linalg.Mat.of_arrays [| [| 4.0; 1.0; 0.0 |]; [| 0.0; 3.0; 1.0 |]; [| 0.0; 0.0; 2.0 |] |]
  in
  let ev = sort_cx (Linalg.Eig_gen.eigenvalues a) in
  checkf "λ₀" ~tol:1e-9 2.0 ev.(0).Complex.re;
  checkf "λ₁" ~tol:1e-9 3.0 ev.(1).Complex.re;
  checkf "λ₂" ~tol:1e-9 4.0 ev.(2).Complex.re

let test_eig_gen_complex_pair () =
  (* rotation-like block has eigenvalues 1 ± 2i *)
  let a = Linalg.Mat.of_arrays [| [| 1.0; -2.0 |]; [| 2.0; 1.0 |] |] in
  let ev = sort_cx (Linalg.Eig_gen.eigenvalues a) in
  checkf "re" ~tol:1e-9 1.0 ev.(0).Complex.re;
  checkf "im magnitude" ~tol:1e-9 2.0 (Float.abs ev.(0).Complex.im)

let test_eig_gen_matches_sym () =
  let rng = Linalg.Rng.create 13 in
  let a = Linalg.Mat.random_symmetric rng 9 in
  let sym = Linalg.Eig_sym.values a in
  let gen = sort_cx (Linalg.Eig_gen.eigenvalues a) in
  for i = 0 to 8 do
    checkf (Printf.sprintf "λ%d" i) ~tol:1e-7 sym.(i) gen.(i).Complex.re;
    checkf (Printf.sprintf "im%d" i) ~tol:1e-7 0.0 gen.(i).Complex.im
  done

(* ------------------------------------------------------------------ *)
(* Complex matrices                                                   *)

let test_cmat_lu_solve () =
  let n = 6 in
  let rng = Linalg.Rng.create 14 in
  let a =
    Linalg.Cmat.init n n (fun _ _ ->
        Linalg.Cx.make (Linalg.Rng.uniform rng (-1.0) 1.0) (Linalg.Rng.uniform rng (-1.0) 1.0))
  in
  for i = 0 to n - 1 do
    Linalg.Cmat.add_to a i i (Linalg.Cx.re 4.0)
  done;
  let b = Array.init n (fun i -> Linalg.Cx.make (float_of_int i) 1.0) in
  let x = Linalg.Cmat.lu_solve_vec (Linalg.Cmat.lu_factor a) b in
  let r = Linalg.Cmat.mul_vec a x in
  let worst = ref 0.0 in
  Array.iteri (fun i ri -> worst := Float.max !worst (Linalg.Cx.abs (Complex.sub ri b.(i)))) r;
  checkf "complex residual" ~tol:1e-10 0.0 !worst

let test_cmat_lincomb () =
  let g = Linalg.Mat.identity 2 in
  let c = Linalg.Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let s = Linalg.Cx.im 2.0 in
  let m = Linalg.Cmat.lincomb Linalg.Cx.one g s c in
  let z = Linalg.Cmat.get m 0 1 in
  checkf "re" ~tol:1e-15 0.0 z.Complex.re;
  checkf "im" ~tol:1e-15 2.0 z.Complex.im

(* The O(n³) factor and O(n²·k) solve loops run on the split re/im
   arrays: reboxing an entry per inner iteration would allocate
   ~n³ minor words. Only the per-pivot and per-row bookkeeping may
   reach the minor heap (the n² result arrays go straight to the
   major heap). *)
let test_cmat_lu_no_boxing () =
  let n = 64 and k = 8 in
  let rng = Linalg.Rng.create 15 in
  let a =
    Linalg.Cmat.init n n (fun _ _ ->
        Linalg.Cx.make (Linalg.Rng.uniform rng (-1.0) 1.0) (Linalg.Rng.uniform rng (-1.0) 1.0))
  in
  let b = Linalg.Cmat.init n k (fun i j -> Linalg.Cx.make (float_of_int i) (float_of_int j)) in
  let run () = ignore (Linalg.Cmat.lu_solve_mat (Linalg.Cmat.lu_factor a) b) in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  let bound = 4.0 *. float_of_int (n * n) in
  if words > bound then
    Alcotest.failf "lu_factor + lu_solve_mat (n = %d, %d rhs) allocated %.0f minor words > %.0f"
      n k words bound

(* The dense real kernels index through [Mat.get]/[set]/[add_to]; each
   call that is not inlined returns or takes a boxed float, ~n³ minor
   words per factor. At n = 64 only per-column and per-sweep
   bookkeeping may reach the minor heap. *)
let test_mat_kernels_no_boxing () =
  let n = 64 in
  let rng = Linalg.Rng.create 16 in
  let a = Linalg.Mat.init n n (fun _ _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
  let s = Linalg.Mat.init n n (fun i j -> Linalg.Mat.get a i j +. Linalg.Mat.get a j i) in
  let b = Linalg.Mat.init n 8 (fun i j -> float_of_int (i + j)) in
  let bound = 4.0 *. float_of_int (n * n) in
  List.iter
    (fun (what, run) ->
      run ();
      let before = Gc.minor_words () in
      run ();
      let words = Gc.minor_words () -. before in
      if words > bound then
        Alcotest.failf "%s (n = %d) allocated %.0f minor words > %.0f" what n words bound)
    [
      ("Lu.factor + Lu.solve_mat", fun () -> ignore (Linalg.Lu.solve_mat (Linalg.Lu.factor a) b));
      ("Eig_gen.eigenvalues", fun () -> ignore (Linalg.Eig_gen.eigenvalues a));
      ("Eig_sym.min_eigenvalue", fun () -> ignore (Linalg.Eig_sym.min_eigenvalue s));
    ]

let test_cmat_min_eig_hermitian () =
  (* [[2, i]; [-i, 2]] has eigenvalues 1 and 3 *)
  let m = Linalg.Cmat.create 2 2 in
  Linalg.Cmat.set m 0 0 (Linalg.Cx.re 2.0);
  Linalg.Cmat.set m 1 1 (Linalg.Cx.re 2.0);
  Linalg.Cmat.set m 0 1 (Linalg.Cx.im 1.0);
  Linalg.Cmat.set m 1 0 (Linalg.Cx.im (-1.0));
  checkf "min eig" ~tol:1e-9 1.0 (Linalg.Cmat.min_eig_hermitian m)

(* ------------------------------------------------------------------ *)
(* Poly                                                               *)

let test_poly_eval () =
  let p = [| 1.0; -3.0; 2.0 |] in
  (* 2x² - 3x + 1 = (2x - 1)(x - 1) *)
  check_float "eval at 2" 3.0 (Linalg.Poly.eval p 2.0);
  Alcotest.(check int) "degree" 2 (Linalg.Poly.degree p)

let test_poly_roots_real () =
  let p = [| 1.0; -3.0; 2.0 |] in
  let r = sort_cx (Linalg.Poly.roots p) in
  checkf "root 0.5" ~tol:1e-8 0.5 r.(0).Complex.re;
  checkf "root 1.0" ~tol:1e-8 1.0 r.(1).Complex.re

let test_poly_roots_complex () =
  (* x² + 1 *)
  let p = [| 1.0; 0.0; 1.0 |] in
  let r = Linalg.Poly.roots p in
  Array.iter
    (fun z ->
      checkf "re" ~tol:1e-8 0.0 z.Complex.re;
      checkf "|im|" ~tol:1e-8 1.0 (Float.abs z.Complex.im))
    r

let test_poly_derivative () =
  let p = [| 1.0; 2.0; 3.0 |] in
  let d = Linalg.Poly.derivative p in
  check_float "d0" 2.0 d.(0);
  check_float "d1" 6.0 d.(1)

(* ------------------------------------------------------------------ *)
(* Rng determinism                                                    *)

let test_rng_deterministic () =
  let a = Linalg.Rng.create 123 and b = Linalg.Rng.create 123 in
  for _ = 1 to 100 do
    check_float "same stream" (Linalg.Rng.float a) (Linalg.Rng.float b)
  done

let test_rng_range () =
  let rng = Linalg.Rng.create 99 in
  for _ = 1 to 1000 do
    let x = Linalg.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done;
  for _ = 1 to 1000 do
    let k = Linalg.Rng.int rng 7 in
    Alcotest.(check bool) "int in range" true (k >= 0 && k < 7)
  done

let test_mat_utilities () =
  let m = Linalg.Mat.of_arrays [| [| 1.0; -2.0; 3.0 |]; [| 4.0; 5.0; -6.0 |] |] in
  checkf "norm_inf = max row sum" ~tol:0.0 15.0 (Linalg.Mat.norm_inf m);
  checkf "max_abs" ~tol:0.0 6.0 (Linalg.Mat.max_abs m);
  checkf "frobenius" ~tol:1e-12 (sqrt 91.0) (Linalg.Mat.frobenius m);
  let sub = Linalg.Mat.submatrix m 0 1 2 2 in
  checkf "submatrix" ~tol:0.0 (-2.0) (Linalg.Mat.get sub 0 0);
  checkf "row extract" ~tol:0.0 5.0 (Linalg.Mat.row m 1).(1);
  let d = Linalg.Mat.diag (Linalg.Vec.of_list [ 2.0; 3.0 ]) in
  checkf "diag" ~tol:0.0 3.0 (Linalg.Mat.get d 1 1);
  checkf "get_diag" ~tol:0.0 2.0 (Linalg.Mat.get_diag d).(0);
  let cols = Linalg.Mat.of_cols [ Linalg.Vec.of_list [ 1.0; 2.0 ]; Linalg.Vec.of_list [ 3.0; 4.0 ] ] in
  checkf "of_cols" ~tol:0.0 3.0 (Linalg.Mat.get cols 0 1)

let test_vec_utilities () =
  let v = Linalg.Vec.of_list [ 1.0; -2.0; 3.0 ] in
  let w = Linalg.Vec.map (fun x -> x *. x) v in
  checkf "map" ~tol:0.0 4.0 w.(1);
  let z = Linalg.Vec.create 3 in
  Linalg.Vec.fill z 7.0;
  checkf "fill" ~tol:0.0 7.0 z.(2);
  checkf "dist_inf" ~tol:0.0 0.0 (Linalg.Vec.dist_inf v (Linalg.Vec.copy v));
  checkf "sub" ~tol:0.0 (-5.0) (Linalg.Vec.sub v (Linalg.Vec.of_list [ 0.0; 3.0; 0.0 ])).(1)

let test_cx_helpers () =
  let a = Linalg.Cx.make 3.0 4.0 in
  checkf "abs" ~tol:1e-12 5.0 (Linalg.Cx.abs a);
  checkf "conj im" ~tol:0.0 (-4.0) (Linalg.Cx.conj a).Complex.im;
  checkf "smul" ~tol:0.0 6.0 (Linalg.Cx.smul 2.0 a).Complex.re;
  Alcotest.(check bool) "close" true (Linalg.Cx.close a (Linalg.Cx.make 3.0 4.0));
  Alcotest.(check bool) "finite" true (Linalg.Cx.is_finite a);
  Alcotest.(check bool) "infinite detected" false
    (Linalg.Cx.is_finite (Linalg.Cx.make Float.infinity 0.0));
  let ainv = Linalg.Cx.inv a in
  checkf "inv" ~tol:1e-12 1.0 (Linalg.Cx.abs Linalg.Cx.(a *: ainv))

let test_rng_split_and_gaussian () =
  let rng = Linalg.Rng.create 5 in
  let child = Linalg.Rng.split rng in
  (* streams differ *)
  let a = Linalg.Rng.float rng and b = Linalg.Rng.float child in
  Alcotest.(check bool) "streams differ" true (a <> b);
  (* gaussian has roughly zero mean over many draws *)
  let sum = ref 0.0 in
  for _ = 1 to 4000 do
    sum := !sum +. Linalg.Rng.gaussian rng
  done;
  Alcotest.(check bool) "gaussian mean" true (Float.abs (!sum /. 4000.0) < 0.1);
  checkf "log_uniform in range" ~tol:0.0 1.0
    (let x = Linalg.Rng.log_uniform rng 1e-3 1e3 in
     if x >= 1e-3 && x < 1e3 then 1.0 else 0.0)

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)

let mat_gen n =
  QCheck.Gen.(
    map
      (fun seed ->
        let rng = Linalg.Rng.create seed in
        Linalg.Mat.random_symmetric rng n)
      int)

let prop_ldlt_reconstruct =
  QCheck.Test.make ~count:40 ~name:"ldlt: M J Mᵀ reconstructs A"
    (QCheck.make (mat_gen 8))
    (fun a ->
      match Linalg.Ldlt.factor a with
      | f ->
        let m = Linalg.Ldlt.m_dense f in
        let j = Linalg.Ldlt.j_diag f in
        let mj = Linalg.Mat.init 8 8 (fun i k -> Linalg.Mat.get m i k *. j.(k)) in
        let recon = Linalg.Mat.mul mj (Linalg.Mat.transpose m) in
        Linalg.Mat.dist_max recon a < 1e-7
      | exception Linalg.Ldlt.Singular _ -> QCheck.assume_fail ())

let prop_eig_sym_trace =
  QCheck.Test.make ~count:40 ~name:"eig_sym: eigenvalue sum equals trace"
    (QCheck.make (mat_gen 7))
    (fun a ->
      let v = Linalg.Eig_sym.values a in
      let trace = ref 0.0 in
      for i = 0 to 6 do
        trace := !trace +. Linalg.Mat.get a i i
      done;
      Float.abs (Array.fold_left ( +. ) 0.0 v -. !trace) < 1e-8)

let prop_lu_solve_residual =
  QCheck.Test.make ~count:40 ~name:"lu: solve residual small"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let a =
        Linalg.Mat.add (Linalg.Mat.random rng 6 6)
          (Linalg.Mat.scale 3.0 (Linalg.Mat.identity 6))
      in
      let b = Linalg.Vec.init 6 (fun i -> Linalg.Rng.uniform rng (-1.0) 1.0 +. float_of_int i) in
      let x = Linalg.Lu.solve a b in
      Linalg.Vec.dist_inf (Linalg.Mat.mul_vec a x) b < 1e-9)

let prop_qr_orthogonal =
  QCheck.Test.make ~count:40 ~name:"qr: thin Q has orthonormal columns"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let a = Linalg.Mat.random rng 10 4 in
      let q = Linalg.Qr.q_thin (Linalg.Qr.factor a) in
      Linalg.Mat.dist_max (Linalg.Mat.gram q) (Linalg.Mat.identity 4) < 1e-9)

let () =
  let qsuite = List.map (fun t -> Qtest.to_alcotest t)
      [ prop_ldlt_reconstruct; prop_eig_sym_trace; prop_lu_solve_residual; prop_qr_orthogonal ]
  in
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "weighted dot" `Quick test_vec_dot3;
          Alcotest.test_case "basis" `Quick test_vec_basis;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "transpose and matvec" `Quick test_mat_transpose_vec;
          Alcotest.test_case "congruence" `Quick test_mat_congruence;
          Alcotest.test_case "is_symmetric" `Quick test_mat_is_symmetric;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve" `Quick test_lu_solve;
          Alcotest.test_case "det" `Quick test_lu_det;
          Alcotest.test_case "inverse random" `Quick test_lu_inverse_random;
          Alcotest.test_case "singular" `Quick test_lu_singular;
        ] );
      ( "chol",
        [
          Alcotest.test_case "roundtrip" `Quick test_chol_roundtrip;
          Alcotest.test_case "solve" `Quick test_chol_solve;
          Alcotest.test_case "rejects indefinite" `Quick test_chol_rejects_indefinite;
        ] );
      ( "ldlt",
        [
          Alcotest.test_case "spd" `Quick test_ldlt_spd;
          Alcotest.test_case "indefinite" `Quick test_ldlt_indefinite;
          Alcotest.test_case "solve" `Quick test_ldlt_solve;
          Alcotest.test_case "inertia" `Quick test_ldlt_inertia;
          Alcotest.test_case "saddle structure" `Quick test_ldlt_saddle_structure;
          Alcotest.test_case "apply_m consistency" `Quick test_ldlt_apply_m_consistency;
          Alcotest.test_case "singular raises" `Quick test_ldlt_singular_raises;
        ] );
      ( "qr",
        [
          Alcotest.test_case "roundtrip" `Quick test_qr_roundtrip;
          Alcotest.test_case "least squares" `Quick test_qr_least_squares;
          Alcotest.test_case "orthonormalize rank" `Quick test_qr_orthonormalize_rank;
        ] );
      ( "eig_sym",
        [
          Alcotest.test_case "2x2" `Quick test_eig_sym_small;
          Alcotest.test_case "reconstruct" `Quick test_eig_sym_reconstruct;
          Alcotest.test_case "spd positive" `Quick test_eig_sym_spd_positive;
          Alcotest.test_case "tridiagonal known spectrum" `Quick test_eig_tridiag;
        ] );
      ( "eig_gen",
        [
          Alcotest.test_case "real spectrum" `Quick test_eig_gen_real_spectrum;
          Alcotest.test_case "complex pair" `Quick test_eig_gen_complex_pair;
          Alcotest.test_case "matches symmetric" `Quick test_eig_gen_matches_sym;
        ] );
      ( "cmat",
        [
          Alcotest.test_case "lu solve" `Quick test_cmat_lu_solve;
          Alcotest.test_case "lincomb" `Quick test_cmat_lincomb;
          Alcotest.test_case "lu allocates no boxed entries" `Quick test_cmat_lu_no_boxing;
          Alcotest.test_case "real kernels allocate no boxed entries" `Quick
            test_mat_kernels_no_boxing;
          Alcotest.test_case "hermitian min eig" `Quick test_cmat_min_eig_hermitian;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval/degree" `Quick test_poly_eval;
          Alcotest.test_case "real roots" `Quick test_poly_roots_real;
          Alcotest.test_case "complex roots" `Quick test_poly_roots_complex;
          Alcotest.test_case "derivative" `Quick test_poly_derivative;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_range;
          Alcotest.test_case "split and gaussian" `Quick test_rng_split_and_gaussian;
        ] );
      ( "utilities",
        [
          Alcotest.test_case "mat helpers" `Quick test_mat_utilities;
          Alcotest.test_case "vec helpers" `Quick test_vec_utilities;
          Alcotest.test_case "cx helpers" `Quick test_cx_helpers;
        ] );
      ("properties", qsuite);
    ]
