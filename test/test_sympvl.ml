(* Tests for the SyMPVL core: the factor behind Pencil, band Lanczos
   invariants, matrix-Padé moment matching, stability/passivity. *)

module Factor = Sympvl.Factor
module Pencil = Sympvl.Pencil
module Band_lanczos = Sympvl.Band_lanczos
module Model = Sympvl.Model
module Reduce = Sympvl.Reduce
module Moments = Sympvl.Moments
module Realisation = Sympvl.Realisation
module Rom = Sympvl.Rom

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

let example_mna base =
  let path =
    List.find_opt Sys.file_exists
      [ "../examples/netlists/" ^ base ^ ".cir"; "examples/netlists/" ^ base ^ ".cir" ]
    |> Option.value ~default:("../examples/netlists/" ^ base ^ ".cir")
  in
  Circuit.Mna.auto (Circuit.Parser.parse_file path)

(* dense reference evaluation of Z(s) = gain · Bᵀ(G + var·C)⁻¹B *)
let z_exact (m : Circuit.Mna.t) s =
  let var =
    match m.Circuit.Mna.variable with
    | Circuit.Mna.S -> s
    | Circuit.Mna.S_squared -> Linalg.Cx.(s *: s)
  in
  let gd = Sparse.Csr.to_dense m.Circuit.Mna.g in
  let cd = Sparse.Csr.to_dense m.Circuit.Mna.c in
  let k = Linalg.Cmat.lincomb Linalg.Cx.one gd var cd in
  let b = Linalg.Cmat.of_real m.Circuit.Mna.b in
  let z = Linalg.Cmat.mul (Linalg.Cmat.transpose b) (Linalg.Cmat.solve k b) in
  match m.Circuit.Mna.gain with
  | Circuit.Mna.Unit -> z
  | Circuit.Mna.Times_s -> Linalg.Cmat.scale s z

(* ------------------------------------------------------------------ *)
(* Factor front-end: G = M J Mᵀ through the one door, Pencil.factor   *)

let factor_g m = Pencil.factor (Pencil.create m) ~shift:0.0

(* M⁻¹x and M⁻ᵀx into fresh vectors, x left alone *)
let m_inv (f : Factor.t) x =
  let y = Linalg.Vec.create f.Factor.n in
  f.Factor.m_inv (Linalg.Vec.copy x) y;
  y

let mt_inv (f : Factor.t) x =
  let y = Linalg.Vec.create f.Factor.n in
  f.Factor.mt_inv (Linalg.Vec.copy x) y;
  y

let test_factor_spd_definite () =
  (* random_rc always has a resistive path to ground: G is PD *)
  let nl = Circuit.Generators.random_rc ~nodes:20 ~extra_edges:15 ~seed:11 () in
  let m = Circuit.Mna.assemble_rc nl in
  let f = factor_g m in
  Alcotest.(check bool) "definite" true f.Factor.definite;
  (* M J Mᵀ x = G x for random x, via solve: G(G⁻¹b) = b *)
  let b = Linalg.Vec.init f.Factor.n (fun i -> sin (float_of_int i)) in
  let x = f.Factor.solve b in
  let gx = Sparse.Csr.mul_vec m.Circuit.Mna.g x in
  checkf "solve consistent" ~tol:1e-9 0.0 (Linalg.Vec.dist_inf gx b)

let test_factor_indefinite_rlc () =
  let nl = Circuit.Generators.rlc_line ~r_load:50.0 ~sections:5 () in
  let m = Circuit.Mna.assemble nl in
  let f = factor_g m in
  Alcotest.(check bool) "indefinite" false f.Factor.definite;
  let b = Linalg.Vec.init f.Factor.n (fun i -> cos (float_of_int i)) in
  let x = f.Factor.solve b in
  let gx = Sparse.Csr.mul_vec m.Circuit.Mna.g x in
  checkf "indefinite solve" ~tol:1e-8 0.0 (Linalg.Vec.dist_inf gx b)

let test_factor_m_consistency () =
  (* G x = M J Mᵀ x: check via applying the factored ops *)
  let nl = Circuit.Generators.random_rc ~nodes:12 ~extra_edges:8 ~seed:12 () in
  let m = Circuit.Mna.assemble_rc nl in
  let f = factor_g m in
  let x = Linalg.Vec.init f.Factor.n (fun i -> float_of_int (i + 1)) in
  (* y = M⁻¹ G M⁻ᵀ x should equal J x *)
  let gmt = Sparse.Csr.mul_vec m.Circuit.Mna.g (mt_inv f x) in
  let y = m_inv f gmt in
  let jx = Linalg.Vec.init f.Factor.n (fun i -> f.Factor.j.(i) *. x.(i)) in
  checkf "M⁻¹GM⁻ᵀ = J" ~tol:1e-8 0.0 (Linalg.Vec.dist_inf y jx)

let test_factor_singular_raises () =
  let nl, _ = Circuit.Generators.peec_mesh ~segments:12 () in
  let m = Circuit.Mna.assemble_lc nl in
  Alcotest.(check bool) "singular G detected" true
    (try
       ignore (factor_g m);
       false
     with Factor.Singular _ -> true)

(* ------------------------------------------------------------------ *)
(* Band Lanczos invariants                                            *)

(* small dense SPD problem where we can verify everything densely *)
let small_problem seed n p =
  let rng = Linalg.Rng.create seed in
  let a = Linalg.Mat.random_spd rng n in
  let b = Linalg.Mat.random rng n p in
  (a, b)

let run_definite a b order =
  let n = a.Linalg.Mat.rows in
  Band_lanczos.run ~n_max:order
    ~op:(fun v -> Linalg.Mat.mul_vec a v)
    ~j:(Array.make n 1.0) ~start:b ()

(* V as an N × n matrix, rebuilt from the stored basis *)
let vectors (res : Band_lanczos.result) = Linalg.Mat.of_cols (Array.to_list res.Band_lanczos.basis)

let test_lanczos_orthogonality () =
  let a, b = small_problem 1 30 3 in
  let res = run_definite a b 12 in
  Alcotest.(check int) "achieved order" 12 res.Band_lanczos.order;
  (* VᵀJV = Δ = I in the definite case *)
  let gram = Linalg.Mat.gram (vectors res) in
  checkf "VᵀV = I" ~tol:1e-8 0.0
    (Linalg.Mat.dist_max gram (Linalg.Mat.identity 12));
  checkf "Δ = I" ~tol:1e-8 0.0
    (Linalg.Mat.dist_max res.Band_lanczos.delta (Linalg.Mat.identity 12))

let test_lanczos_projection_identity () =
  (* T = Δ⁻¹ Vᵀ J A V — here Δ = J = I so T = VᵀAV *)
  let a, b = small_problem 2 25 2 in
  let res = run_definite a b 10 in
  let vtav = Linalg.Mat.congruence (vectors res) a in
  checkf "T = VᵀAV" ~tol:1e-7 0.0 (Linalg.Mat.dist_max vtav res.Band_lanczos.t_mat)

let test_lanczos_start_block_factor () =
  (* start block = V ρ *)
  let a, b = small_problem 3 20 3 in
  let res = run_definite a b 9 in
  let vrho = Linalg.Mat.mul (vectors res) res.Band_lanczos.rho in
  checkf "B = Vρ" ~tol:1e-8 0.0 (Linalg.Mat.dist_max vrho b)

let test_lanczos_t_banded_symmetric () =
  let a, b = small_problem 4 30 2 in
  let res = run_definite a b 14 in
  Alcotest.(check bool) "T symmetric" true
    (Linalg.Mat.is_symmetric ~tol:1e-7 res.Band_lanczos.t_mat);
  (* bandwidth p: entries beyond the band are ~0 *)
  let worst = ref 0.0 in
  for i = 0 to 13 do
    for j = 0 to 13 do
      if abs (i - j) > 2 then
        worst := Float.max !worst (Float.abs (Linalg.Mat.get res.Band_lanczos.t_mat i j))
    done
  done;
  checkf "T banded" ~tol:1e-7 0.0 !worst

let test_lanczos_deflation_dependent_columns () =
  (* duplicate starting column must deflate: p1 < p *)
  let rng = Linalg.Rng.create 5 in
  let a = Linalg.Mat.random_spd rng 15 in
  let b1 = Linalg.Mat.random rng 15 1 in
  let b = Linalg.Mat.create 15 2 in
  Linalg.Mat.set_col b 0 (Linalg.Mat.col b1 0);
  Linalg.Mat.set_col b 1 (Linalg.Vec.scale 2.0 (Linalg.Mat.col b1 0));
  let res = run_definite a b 8 in
  Alcotest.(check int) "p1 = 1 after deflation" 1 res.Band_lanczos.p1;
  Alcotest.(check bool) "deflation recorded" true (res.Band_lanczos.deflations <> [])

let test_lanczos_exhaustion () =
  (* order cannot exceed N: the process reports exhaustion *)
  let a, b = small_problem 6 6 2 in
  let res = run_definite a b 20 in
  Alcotest.(check bool) "exhausted" true res.Band_lanczos.exhausted;
  Alcotest.(check bool) "order ≤ N" true (res.Band_lanczos.order <= 6)

let test_lanczos_indefinite_j () =
  (* indefinite J: cluster-wise orthogonality must still hold *)
  let rng = Linalg.Rng.create 7 in
  let n = 24 in
  let j = Array.init n (fun i -> if i mod 3 = 0 then -1.0 else 1.0) in
  (* F = J⁻¹ A with A symmetric → J-symmetric operator *)
  let a = Linalg.Mat.random_symmetric rng n in
  let op v = Linalg.Vec.init n (fun i -> j.(i) *. (Linalg.Mat.mul_vec a v).(i)) in
  let b = Linalg.Mat.random rng n 2 in
  let res = Band_lanczos.run ~n_max:10 ~op ~j ~start:b () in
  let v = (vectors res) in
  let jm = Linalg.Mat.init n n (fun i k -> if i = k then j.(i) else 0.0) in
  let vjv = Linalg.Mat.congruence v jm in
  (* off-block entries of VᵀJV must vanish; block entries equal Δ *)
  checkf "VᵀJV = Δ" ~tol:1e-7 0.0 (Linalg.Mat.dist_max vjv res.Band_lanczos.delta);
  (* the SyMPVL operator J⁻¹M⁻¹CM⁻ᵀ of coupled_lines (general form,
     indefinite J), built on the pencil's factor as Reduce does: the
     largest drift among the shipped examples at order 8 *)
  let m = example_mna "coupled_lines" in
  let o = Reduce.default ~order:8 in
  Pencil.with_auto_shift (Pencil.create m) (fun _ fac ->
      let j = fac.Factor.j and n = m.Circuit.Mna.n in
      Alcotest.(check bool) "coupled_lines: J indefinite" true (Array.exists (fun x -> x < 0.0) j);
      let jmul v = Array.mapi (fun i x -> j.(i) *. x) v in
      let op v =
        jmul (m_inv fac (Sparse.Csr.mul_vec m.Circuit.Mna.c (mt_inv fac v)))
      in
      let b = m.Circuit.Mna.b in
      let start = Linalg.Mat.create n b.Linalg.Mat.cols in
      for k = 0 to b.Linalg.Mat.cols - 1 do
        Linalg.Mat.set_col start k (jmul (m_inv fac (Linalg.Mat.col b k)))
      done;
      let res =
        Band_lanczos.run ~dtol:o.Reduce.dtol ~ctol:o.Reduce.ctol ~full_ortho:o.Reduce.full_ortho
          ~n_max:o.Reduce.order ~op ~j ~start ()
      in
      let jm = Linalg.Mat.diag (Linalg.Vec.init n (fun i -> j.(i))) in
      let vjv = Linalg.Mat.congruence (vectors res) jm in
      let delta = res.Band_lanczos.delta in
      let drift = Linalg.Mat.dist_max vjv delta /. Linalg.Mat.max_abs delta in
      if drift > 1e-6 then Alcotest.failf "coupled_lines: ‖VᵀJV − Δ‖/‖Δ‖ = %.3e > 1e-6" drift)

(* the look-ahead (cluster) machinery: engineer an exact J-breakdown
   (v₁ᵀJv₁ = 0) and verify the process recovers with a 2×2 cluster
   and still produces the correct Padé approximant *)
let lookahead_setup seed =
  let n = 12 in
  let rng = Linalg.Rng.create seed in
  let a = Linalg.Mat.random_symmetric rng n in
  let j = Array.init n (fun i -> if i < n / 2 then 1.0 else -1.0) in
  let op v = Linalg.Vec.init n (fun i -> j.(i) *. (Linalg.Mat.mul_vec a v).(i)) in
  let b = Linalg.Mat.create n 1 in
  Linalg.Mat.set b 0 0 1.0;
  Linalg.Mat.set b (n / 2) 0 1.0;
  (n, a, j, op, b)

let zhat_exact n a j b sigma =
  (* Ẑ(σ) = RᵀJ(I + σF)⁻¹R with F = J⁻¹A *)
  let f = Linalg.Mat.init n n (fun r c -> j.(r) *. Linalg.Mat.get a r c) in
  let k = Linalg.Cmat.lincomb Linalg.Cx.one (Linalg.Mat.identity n) sigma f in
  let x = Linalg.Cmat.solve k (Linalg.Cmat.of_real b) in
  let jr =
    Linalg.Cmat.of_real (Linalg.Mat.init n 1 (fun r _ -> j.(r) *. Linalg.Mat.get b r 0))
  in
  Linalg.Cmat.get (Linalg.Cmat.mul (Linalg.Cmat.transpose jr) x) 0 0

let zn_model (res : Band_lanczos.result) sigma =
  let order = res.Band_lanczos.order in
  let k =
    Linalg.Cmat.lincomb Linalg.Cx.one (Linalg.Mat.identity order) sigma
      res.Band_lanczos.t_mat
  in
  let x =
    Linalg.Cmat.lu_solve_mat (Linalg.Cmat.lu_factor k)
      (Linalg.Cmat.of_real res.Band_lanczos.rho)
  in
  let rd =
    Linalg.Mat.mul (Linalg.Mat.transpose res.Band_lanczos.rho) res.Band_lanczos.delta
  in
  Linalg.Cmat.get (Linalg.Cmat.mul (Linalg.Cmat.of_real rd) x) 0 0

let test_lanczos_look_ahead_cluster () =
  let n, a, j, op, b = lookahead_setup 31 in
  let res = Band_lanczos.run ~n_max:8 ~op ~j ~start:b () in
  Alcotest.(check bool) "look-ahead happened" true (res.Band_lanczos.look_ahead_steps >= 1);
  Alcotest.(check bool) "a multi-vector cluster exists" true
    (res.Band_lanczos.n_clusters < res.Band_lanczos.order);
  let jm = Linalg.Mat.diag (Linalg.Vec.init n (fun i -> j.(i))) in
  let vjv = Linalg.Mat.congruence (vectors res) jm in
  checkf "cluster-wise J-orthogonality" ~tol:1e-10 0.0
    (Linalg.Mat.dist_max vjv res.Band_lanczos.delta);
  List.iter
    (fun im ->
      let sigma = Linalg.Cx.make 0.02 im in
      let ze = zhat_exact n a j b sigma in
      let zr = zn_model res sigma in
      checkf (Printf.sprintf "padé through look-ahead at %g" im) ~tol:1e-9 0.0
        (Linalg.Cx.abs Linalg.Cx.(ze -: zr) /. Linalg.Cx.abs ze))
    [ 0.01; 0.05; 0.1 ]

let test_lanczos_look_ahead_windowed () =
  (* the paper's windowed recurrences must also survive the breakdown *)
  let n, a, j, op, b = lookahead_setup 32 in
  let res = Band_lanczos.run ~full_ortho:false ~n_max:8 ~op ~j ~start:b () in
  let sigma = Linalg.Cx.make 0.02 0.05 in
  let ze = zhat_exact n a j b sigma in
  let zr = zn_model res sigma in
  checkf "windowed padé err" ~tol:1e-7 0.0
    (Linalg.Cx.abs Linalg.Cx.(ze -: zr) /. Linalg.Cx.abs ze)

(* ------------------------------------------------------------------ *)
(* Matrix-Padé property: moment matching                              *)

let test_moments_rc_single_port () =
  let nl = Circuit.Generators.rc_line ~sections:12 ~output_port:false () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:6 m in
  (* p = 1: must match 2n = 12 moments *)
  let matched = Moments.matched_count ~rtol:1e-5 model m in
  Alcotest.(check bool)
    (Printf.sprintf "matched %d >= 12" matched)
    true (matched >= 12)

let test_moments_rc_two_port () =
  let nl = Circuit.Generators.rc_line ~sections:12 () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:8 m in
  (* p = 2: 2⌊8/2⌋ = 8 moments *)
  let matched = Moments.matched_count ~rtol:1e-5 model m in
  Alcotest.(check bool) (Printf.sprintf "matched %d >= 8" matched) true (matched >= 8)

let test_moments_rlc_indefinite () =
  let nl = Circuit.Generators.rlc_line ~sections:6 () in
  let m = Circuit.Mna.assemble nl in
  let model = Reduce.mna ~order:8 m in
  Alcotest.(check bool) "indefinite path" false model.Model.definite;
  let matched = Moments.matched_count ~rtol:1e-4 model m in
  Alcotest.(check bool) (Printf.sprintf "matched %d >= 8" matched) true (matched >= 8)

let test_moments_coupled_bus () =
  let nl = Circuit.Generators.coupled_rc_bus ~wires:3 ~sections:5 () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:9 m in
  (* p = 3: 2⌊9/3⌋ = 6 *)
  let matched = Moments.matched_count ~rtol:1e-5 model m in
  Alcotest.(check bool) (Printf.sprintf "matched %d >= 6" matched) true (matched >= 6)

(* ------------------------------------------------------------------ *)
(* Transfer-function accuracy                                         *)

let rel_err_at m model s =
  let ze = z_exact m s and zr = Sympvl.Realisation.eval model.Model.real s in
  Linalg.Cmat.dist_max ze zr /. Float.max (Linalg.Cmat.max_abs ze) 1e-300

let test_accuracy_rc_line () =
  let nl = Circuit.Generators.rc_line ~sections:40 () in
  let m = Circuit.Mna.assemble_rc nl in
  let opts =
    { (Reduce.default ~order:12) with Reduce.band = Some (1e6, 1e9) }
  in
  let model = Reduce.mna ~opts ~order:12 m in
  (* across the band where the line is active *)
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let err = rel_err_at m model s in
      Alcotest.(check bool)
        (Printf.sprintf "err %.2e at %g Hz" err f)
        true (err < 1e-4))
    [ 1e6; 1e7; 1e8; 1e9 ]

let test_accuracy_increases_with_order () =
  let nl = Circuit.Generators.coupled_rc_bus ~wires:4 ~sections:8 () in
  let m = Circuit.Mna.assemble_rc nl in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e9) in
  let errs =
    List.map
      (fun order ->
        let opts = { (Reduce.default ~order) with Reduce.band = Some (1e8, 2e9) } in
        rel_err_at m (Reduce.mna ~opts ~order m) s)
      [ 4; 12; 24 ]
  in
  match errs with
  | [ e1; e2; e3 ] ->
    Alcotest.(check bool)
      (Printf.sprintf "monotone-ish %g %g %g" e1 e2 e3)
      true
      (e3 < e2 +. 1e-12 && e2 < e1 +. 1e-12 && e3 < 1e-8)
  | _ -> assert false

let test_accuracy_rlc_general () =
  let nl = Circuit.Generators.rlc_line ~sections:10 () in
  let m = Circuit.Mna.assemble nl in
  let opts = { (Reduce.default ~order:20) with Reduce.band = Some (1e7, 1e9) } in
  let model = Reduce.mna ~opts ~order:20 m in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e8) in
  let err = rel_err_at m model s in
  Alcotest.(check bool) (Printf.sprintf "rlc err %.2e" err) true (err < 1e-6)

let test_accuracy_lc_peec_with_shift () =
  let nl, _ = Circuit.Generators.peec_mesh ~segments:20 () in
  let m = Circuit.Mna.assemble_lc nl in
  (* G singular: Reduce must auto-shift (band-informed) and stay
     accurate *)
  let opts = { (Reduce.default ~order:16) with Reduce.band = Some (1e8, 5e9) } in
  let model = Reduce.mna ~opts ~order:16 m in
  Alcotest.(check bool) "shift applied" true (model.Model.shift > 0.0);
  Alcotest.(check bool) "definite (LC)" true model.Model.definite;
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 2e9) in
  let err = rel_err_at m model s in
  Alcotest.(check bool) (Printf.sprintf "lc err %.2e" err) true (err < 1e-5)

let test_scalar_sypvl () =
  let nl = Circuit.Generators.rc_line ~sections:20 () in
  let m = Circuit.Mna.assemble_rc nl in
  let opts = { (Reduce.default ~order:8) with Reduce.band = Some (1e7, 1e9) } in
  let model = Reduce.scalar ~opts ~order:8 ~port:0 m in
  Alcotest.(check int) "p = 1" 1 model.Model.p;
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e8) in
  let ze = Linalg.Cmat.get (z_exact m s) 0 0 in
  let zr = Linalg.Cmat.get (Sympvl.Realisation.eval model.Model.real s) 0 0 in
  Alcotest.(check bool) "scalar accurate" true
    (Linalg.Cx.abs Linalg.Cx.(ze -: zr) /. Linalg.Cx.abs ze < 1e-6)

(* ------------------------------------------------------------------ *)
(* Stability and passivity certificates (Section 5)                   *)

let test_stability_rc_all_orders () =
  (* terminated bus: G nonsingular, expansion about 0 — the exact
     setting of the paper's Section 5 guarantee *)
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:200.0 ~wires:3 ~sections:6 () in
  let m = Circuit.Mna.assemble_rc nl in
  List.iter
    (fun order ->
      let model = Reduce.mna ~order m in
      Alcotest.(check bool) "definite" true model.Model.definite;
      (* T PSD → all poles on the negative real axis *)
      let tmin = Linalg.Eig_sym.min_eigenvalue model.Model.t_mat in
      Alcotest.(check bool)
        (Printf.sprintf "T ⪰ 0 at order %d (min %g)" order tmin)
        true
        (tmin > -1e-10);
      Array.iter
        (fun pole ->
          Alcotest.(check bool)
            (Printf.sprintf "pole %g ≤ 0" pole.Complex.re)
            true
            (pole.Complex.re <= 1e-9))
        (Sympvl.Realisation.poles model.Model.real))
    [ 2; 5; 9; 15 ]

let test_passivity_rc_sampling () =
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:200.0 ~wires:3 ~sections:6 () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:9 m in
  (* Re xᴴ Zₙ(jω) x ≥ 0 ⟺ hermitian part of Zₙ(jω) PSD *)
  List.iter
    (fun f ->
      let z = Sympvl.Realisation.eval model.Model.real (Linalg.Cx.im (2.0 *. Float.pi *. f)) in
      let me = Linalg.Cmat.min_eig_hermitian (Linalg.Cmat.hermitian_part z) in
      Alcotest.(check bool)
        (Printf.sprintf "passive at %g Hz (min eig %g)" f me)
        true
        (me > -1e-9))
    [ 1e3; 1e6; 1e8; 1e9; 1e10 ]

(* ------------------------------------------------------------------ *)
(* Model utilities                                                    *)

let test_model_truncate () =
  let nl = Circuit.Generators.rc_line ~sections:15 () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:10 m in
  let small = Model.truncate model 4 in
  Alcotest.(check int) "order" 4 small.Model.order;
  (* truncation of a definite model is itself the order-4 model *)
  let direct = Reduce.mna ~order:4 m in
  let s = Linalg.Cx.im 1e8 in
  checkf "same Z" ~tol:1e-6 0.0
    (Linalg.Cmat.dist_max (Sympvl.Realisation.eval small.Model.real s) (Sympvl.Realisation.eval direct.Model.real s)
    /. Linalg.Cmat.max_abs (Sympvl.Realisation.eval direct.Model.real s))

let test_model_state_space () =
  let nl = Circuit.Generators.rc_line ~sections:10 () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:6 m in
  let ghat, chat, rho = Option.get model.Model.real.Sympvl.Realisation.sym in
  Alcotest.(check bool) "ĝ symmetric" true (Linalg.Mat.is_symmetric ~tol:1e-8 ghat);
  Alcotest.(check bool) "ĉ symmetric" true (Linalg.Mat.is_symmetric ~tol:1e-8 chat);
  (* state space evaluates to the same transfer function *)
  let s = Linalg.Cx.im 1e9 in
  let k = Linalg.Cmat.lincomb Linalg.Cx.one ghat s chat in
  let x = Linalg.Cmat.solve k (Linalg.Cmat.of_real rho) in
  let z_ss = Linalg.Cmat.mul (Linalg.Cmat.of_real (Linalg.Mat.transpose rho)) x in
  checkf "state-space eval" ~tol:1e-8 0.0
    (Linalg.Cmat.dist_max z_ss (Sympvl.Realisation.eval model.Model.real s) /. Linalg.Cmat.max_abs z_ss)

let test_model_dc_gain () =
  (* RC line: DC impedance from the input = sum of series resistances
     is wrong (line goes nowhere) — with no DC path to ground except
     none... use a line with a resistor to ground: single resistor. *)
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  Circuit.Netlist.add_resistor nl a 0 7.0;
  Circuit.Netlist.add_capacitor nl a 0 1e-12;
  Circuit.Netlist.add_port nl "p" a;
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:1 m in
  checkf "dc gain = R" ~tol:1e-9 7.0
    (Linalg.Cmat.get (Sympvl.Realisation.eval model.Model.real Linalg.Cx.zero) 0 0).Complex.re

(* ------------------------------------------------------------------ *)
(* Modal form: the pole–residue sum against a dense complex LU        *)

(* with the general form in place of its modal one, [Realisation.poles]
   takes the generalized eigensolver *)
let eig_arm (r : Realisation.t) =
  {
    r with
    Realisation.form =
      Realisation.general_form ~a0:r.Realisation.a0 ~a1:r.Realisation.a1 ~b:r.Realisation.b
        ~c:r.Realisation.c;
  }

let modal_of (r : Realisation.t) =
  match r.Realisation.form with Realisation.Modal md -> Some md | _ -> None

let rel_dist = Dense_ref.rel_dist

let bits f = Int64.bits_of_float f

let bits_equal a b = Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let cmat_bits_equal (a : Linalg.Cmat.t) (b : Linalg.Cmat.t) =
  a.rows = b.rows && bits_equal a.re b.re && bits_equal a.im b.im

let mat_bits_equal (a : Linalg.Mat.t) (b : Linalg.Mat.t) = a.rows = b.rows && bits_equal a.a b.a

let bit_symmetric (z : Linalg.Cmat.t) =
  let p = z.rows in
  let ok = ref true in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      let ij = (i * p) + j and ji = (j * p) + i in
      if bits z.re.(ij) <> bits z.re.(ji) || bits z.im.(ij) <> bits z.im.(ji) then ok := false
    done
  done;
  !ok

let modal_freqs = Dense_ref.freqs

(* [None] when the realisation agrees with a dense LU (within [rtol],
   bit-symmetric, same pole count); else what went wrong *)
let modal_mismatch ~rtol (r : Realisation.t) =
  if modal_of r = None then Some "no modal form"
  else
    let bad =
      Array.to_list modal_freqs
      |> List.find_map (fun f ->
             let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
             let z = Realisation.eval r s in
             let e = rel_dist z (Dense_ref.eval r s) in
             if e > rtol then Some (Printf.sprintf "%.2e relative at %g Hz" e f)
             else if not (bit_symmetric z) then Some (Printf.sprintf "asymmetric at %g Hz" f)
             else None)
    in
    match bad with
    | Some _ -> bad
    | None ->
      let np = Array.length (Realisation.poles r)
      and nl = Array.length (Realisation.poles (eig_arm r)) in
      if np <> nl then Some (Printf.sprintf "%d poles, eigensolver %d" np nl) else None

let lint_clean nl =
  List.for_all (fun d -> d.Circuit.Diagnostic.severity = Circuit.Diagnostic.Info) (Analysis.Lint.run nl)

let prop_modal_matches_lu =
  QCheck.Test.make ~count:25 ~if_assumptions_fail:(`Fatal, 0.5)
    ~name:"modal eval = LU arm on random RC (s0 = 0, shifted, BT)"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, ports) ->
      let nl =
        Circuit.Generators.random_rc ~ports ~nodes:(8 + (seed mod 13)) ~extra_edges:6 ~seed ()
      in
      QCheck.assume (lint_clean nl);
      let m = Circuit.Mna.assemble_rc nl in
      let order = 6 in
      (* a mid-band shift: far above every pole (Reduce.auto_shift) the
         model itself is ill-conditioned — one ulp of T moves Z by ~1e-12
         there, on both arms alike *)
      let shifted =
        { (Reduce.default ~order) with Reduce.shift = Some (Reduce.band_shift m (1e6, 1e10)) }
      in
      let cases =
        [
          ("sympvl s0 = 0", (Reduce.mna ~order m).Model.real);
          ("sympvl shifted", (Reduce.mna ~opts:shifted ~order m).Model.real);
          ("bt", Rom.realisation (Rom.reduce ~order `Bt m));
        ]
      in
      List.for_all
        (fun (label, r) ->
          match modal_mismatch ~rtol:1e-12 r with
          | None -> true
          | Some why -> QCheck.Test.fail_reportf "%s: %s" label why)
        cases)

let test_modal_lc_tank () =
  let model = Reduce.mna ~order:8 (example_mna "lc_tank") in
  Alcotest.(check bool) "s² variable" true (model.Model.variable = Circuit.Mna.S_squared);
  match modal_mismatch ~rtol:1e-10 model.Model.real with
  | None -> ()
  | Some why -> Alcotest.failf "lc_tank: %s" why

(* every order is a cluster boundary on the J = I path: truncating is
   a fresh run of the smaller order, down to the last bit *)
let test_modal_truncate_bitwise () =
  let m = Circuit.Mna.assemble_rc (Circuit.Generators.rc_line ~sections:15 ()) in
  let small = Model.truncate (Reduce.mna ~order:10 m) 4 and fresh = Reduce.mna ~order:4 m in
  Alcotest.(check bool) "T, Δ, ρ" true
    (mat_bits_equal small.Model.t_mat fresh.Model.t_mat
    && mat_bits_equal small.Model.delta fresh.Model.delta
    && mat_bits_equal small.Model.rho fresh.Model.rho);
  (match (modal_of small.Model.real, modal_of fresh.Model.real) with
  | Some a, Some b ->
    Alcotest.(check bool) "modal form" true
      (bits_equal a.Realisation.lambda b.Realisation.lambda
      && mat_bits_equal a.Realisation.w b.Realisation.w)
  | _ -> Alcotest.fail "both realisations carry a modal form");
  Array.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      Alcotest.(check bool)
        (Printf.sprintf "eval at %g Hz" f)
        true
        (cmat_bits_equal (Realisation.eval small.Model.real s) (Realisation.eval fresh.Model.real s)))
    modal_freqs

(* Z(σ) = Σ WₖᵀWₖ/(1 + σλₖ) with λ = (1/4, 1): σ = −1 zeroes term 1 *)
let test_modal_singular_term () =
  let g = Linalg.Mat.diag [| 4.0; 1.0 |] and id = Linalg.Mat.identity 2 in
  let r =
    Realisation.congruence ~definite:true ~shift:0.0 ~variable:Circuit.Mna.S
      ~gain:Circuit.Mna.Unit g id id
  in
  (match modal_of r with
  | Some md -> Alcotest.(check (array (float 0.0))) "λ" [| 0.25; 1.0 |] md.Realisation.lambda
  | None -> Alcotest.fail "no modal form");
  Alcotest.check_raises "1 + σλ = 0" (Linalg.Cmat.Singular 1) (fun () ->
      ignore (Realisation.eval r (Linalg.Cx.re (-1.0))))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)

let prop_rc_stable_passive =
  QCheck.Test.make ~count:15 ~name:"sympvl: random RC models are stable"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let nl = Circuit.Generators.random_rc ~nodes:15 ~extra_edges:12 ~seed () in
      let m = Circuit.Mna.assemble_rc nl in
      let model = Reduce.mna ~order:6 m in
      model.Model.definite
      && Linalg.Eig_sym.min_eigenvalue model.Model.t_mat > -1e-9
      && Array.for_all (fun p -> p.Complex.re <= 1e-9) (Sympvl.Realisation.poles model.Model.real))

let prop_moment_matching =
  QCheck.Test.make ~count:10 ~name:"sympvl: 2⌊n/p⌋ moments match on random RC"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let nl =
        Circuit.Generators.random_rc ~ports:2 ~nodes:14 ~extra_edges:10 ~seed ()
      in
      let m = Circuit.Mna.assemble_rc nl in
      let order = 6 in
      let model = Reduce.mna ~order m in
      Moments.matched_count ~rtol:1e-4 model m >= 2 * (order / 2))

let () =
  let qsuite =
    List.map (fun t -> Qtest.to_alcotest t)
      [ prop_rc_stable_passive; prop_moment_matching; prop_modal_matches_lu ]
  in
  Alcotest.run "sympvl-core"
    [
      ( "factor",
        [
          Alcotest.test_case "spd definite" `Quick test_factor_spd_definite;
          Alcotest.test_case "indefinite rlc" `Quick test_factor_indefinite_rlc;
          Alcotest.test_case "M consistency" `Quick test_factor_m_consistency;
          Alcotest.test_case "singular raises" `Quick test_factor_singular_raises;
        ] );
      ( "band_lanczos",
        [
          Alcotest.test_case "orthogonality" `Quick test_lanczos_orthogonality;
          Alcotest.test_case "projection identity" `Quick test_lanczos_projection_identity;
          Alcotest.test_case "start block factor" `Quick test_lanczos_start_block_factor;
          Alcotest.test_case "T banded symmetric" `Quick test_lanczos_t_banded_symmetric;
          Alcotest.test_case "deflation" `Quick test_lanczos_deflation_dependent_columns;
          Alcotest.test_case "exhaustion" `Quick test_lanczos_exhaustion;
          Alcotest.test_case "indefinite J" `Quick test_lanczos_indefinite_j;
          Alcotest.test_case "look-ahead cluster" `Quick test_lanczos_look_ahead_cluster;
          Alcotest.test_case "look-ahead windowed" `Quick test_lanczos_look_ahead_windowed;
        ] );
      ( "moments",
        [
          Alcotest.test_case "rc single port 2n" `Quick test_moments_rc_single_port;
          Alcotest.test_case "rc two port" `Quick test_moments_rc_two_port;
          Alcotest.test_case "rlc indefinite" `Quick test_moments_rlc_indefinite;
          Alcotest.test_case "coupled bus" `Quick test_moments_coupled_bus;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "rc line band" `Quick test_accuracy_rc_line;
          Alcotest.test_case "order sweep" `Quick test_accuracy_increases_with_order;
          Alcotest.test_case "rlc general" `Quick test_accuracy_rlc_general;
          Alcotest.test_case "lc peec shift" `Quick test_accuracy_lc_peec_with_shift;
          Alcotest.test_case "scalar sypvl" `Quick test_scalar_sypvl;
        ] );
      ( "stability",
        [
          Alcotest.test_case "rc all orders" `Quick test_stability_rc_all_orders;
          Alcotest.test_case "rc passivity sampling" `Quick test_passivity_rc_sampling;
        ] );
      ( "model",
        [
          Alcotest.test_case "truncate" `Quick test_model_truncate;
          Alcotest.test_case "state space" `Quick test_model_state_space;
          Alcotest.test_case "dc gain" `Quick test_model_dc_gain;
        ] );
      ( "modal",
        [
          Alcotest.test_case "lc_tank against the LU arm" `Quick test_modal_lc_tank;
          Alcotest.test_case "truncation = fresh run bit for bit" `Quick
            test_modal_truncate_bitwise;
          Alcotest.test_case "a zero 1 + σλ is Singular" `Quick test_modal_singular_term;
        ] );
      ("properties", qsuite);
    ]
