(* Tests for the baselines and post-processing: AWE (explicit-moment
   Padé), block-Arnoldi congruence projection, pole/residue
   stabilisation, and the stability/passivity findings Certify
   (MOD002/MOD001) reports for SyMPVL models. *)

module Model = Sympvl.Model
module Reduce = Sympvl.Reduce
module Awe = Sympvl.Awe
module Arnoldi = Sympvl.Arnoldi
module Certify = Sympvl.Certify
module D = Circuit.Diagnostic
module Postprocess = Sympvl.Postprocess

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

let z_exact_scalar (m : Circuit.Mna.t) s port =
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
  let z0 = Linalg.Cmat.get z port port in
  match m.Circuit.Mna.gain with
  | Circuit.Mna.Unit -> z0
  | Circuit.Mna.Times_s -> Linalg.Cx.(s *: z0)

let terminated_bus () =
  Circuit.Generators.coupled_rc_bus ~terminate:150.0 ~wires:3 ~sections:8 ()

(* ------------------------------------------------------------------ *)
(* AWE                                                                *)

let test_awe_low_order_accurate () =
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let awe = Awe.build ~order:5 ~port:0 m in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e8) in
  let ze = z_exact_scalar m s 0 in
  let za = Linalg.Cmat.get (Sympvl.Realisation.eval awe.Awe.real s) 0 0 in
  let err = Linalg.Cx.abs Linalg.Cx.(ze -: za) /. Linalg.Cx.abs ze in
  Alcotest.(check bool) (Printf.sprintf "awe err %.2e" err) true (err < 1e-3)

let test_awe_hankel_degrades () =
  (* the Hankel reciprocal condition must collapse as order grows —
     the documented AWE instability *)
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let rc_at order = (Awe.build ~order ~port:0 m).Awe.hankel_rcond in
  let r3 = rc_at 3 and r10 = rc_at 10 in
  Alcotest.(check bool)
    (Printf.sprintf "rcond collapse %.2e -> %.2e" r3 r10)
    true
    (r10 < 1e-6 *. r3)

let test_awe_matches_sypvl_low_order () =
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let order = 4 in
  let awe = Awe.build ~order ~port:0 m in
  let sypvl = Reduce.scalar ~order ~port:0 m in
  (* both are [order−1/order] Padé approximants of the same function:
     they must agree wherever AWE is numerically sane *)
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 5e7) in
  let za = Linalg.Cmat.get (Sympvl.Realisation.eval awe.Awe.real s) 0 0 in
  let zp = Linalg.Cmat.get (Sympvl.Realisation.eval sypvl.Model.real s) 0 0 in
  let err = Linalg.Cx.abs Linalg.Cx.(za -: zp) /. Linalg.Cx.abs zp in
  Alcotest.(check bool) (Printf.sprintf "padé agreement %.2e" err) true (err < 1e-6)

let test_awe_rejects_s_squared () =
  let nl, _ = Circuit.Generators.peec_mesh ~segments:10 () in
  let m = Circuit.Mna.assemble_lc nl in
  Alcotest.(check bool) "rejects LC pencil" true
    (try
       ignore (Awe.build ~order:3 ~port:0 m);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Arnoldi                                                            *)

let test_arnoldi_accuracy () =
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let ar = Arnoldi.reduce ~order:18 m in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e9) in
  let ze = z_exact_scalar m s 0 in
  let za = Linalg.Cmat.get (Sympvl.Realisation.eval ar s) 0 0 in
  let err = Linalg.Cx.abs Linalg.Cx.(ze -: za) /. Linalg.Cx.abs ze in
  Alcotest.(check bool) (Printf.sprintf "arnoldi err %.2e" err) true (err < 1e-5)

let test_arnoldi_congruence_psd () =
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let ar = Arnoldi.reduce ~order:12 m in
  Alcotest.(check bool) "Ĝ PSD" true
    (Linalg.Eig_sym.min_eigenvalue ar.Sympvl.Realisation.a0 > -1e-9);
  Alcotest.(check bool) "Ĉ PSD" true
    (Linalg.Eig_sym.min_eigenvalue ar.Sympvl.Realisation.a1 > -1e-9);
  Array.iter
    (fun pole ->
      Alcotest.(check bool) "pole in LHP" true (pole.Complex.re <= 1e-6))
    (Sympvl.Realisation.poles ar)

let test_arnoldi_fewer_moments_than_sympvl () =
  (* at equal order, SyMPVL (2⌊n/p⌋ moments) beats Arnoldi (⌊n/p⌋)
     near the expansion point *)
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let order = 9 in
  let sympvl = Reduce.mna ~order m in
  let arnoldi = Arnoldi.reduce ~order m in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 3e9) in
  let ze = z_exact_scalar m s 0 in
  let e_sympvl =
    Linalg.Cx.abs Linalg.Cx.(ze -: Linalg.Cmat.get (Sympvl.Realisation.eval sympvl.Model.real s) 0 0)
  in
  let e_arnoldi =
    Linalg.Cx.abs Linalg.Cx.(ze -: Linalg.Cmat.get (Sympvl.Realisation.eval arnoldi s) 0 0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sympvl %.2e <= arnoldi %.2e" e_sympvl e_arnoldi)
    true
    (e_sympvl <= e_arnoldi *. 1.5)

(* ------------------------------------------------------------------ *)
(* Stability and passivity through Certify                            *)

let structural model m = Certify.structural (Sympvl.Rom.Sympvl_model model) m

let severity_of code ds = (List.find (fun d -> d.D.code = code) ds).D.severity

let test_stability_certified_rc () =
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:10 m in
  let ds = structural model m in
  Alcotest.(check bool) "stable (MOD001 info)" true (severity_of "MOD001" ds = D.Info);
  Alcotest.(check bool) "passivity certified" true
    (match Certify.structural_certificate model.Model.real with
    | Certify.Certified _ -> true
    | _ -> false);
  Alcotest.(check bool) "no violation bands" true
    (Linalg.Hamiltonian.violation_bands (Sympvl.Realisation.phys_pencil model.Model.real) = [])

(* a shifted expansion leaves the definite unshifted path: nothing was
   promised, so no finding can be an error, and the certify pass
   reports the shift (MOD008) *)
let test_stability_not_applicable_shifted () =
  let nl = Circuit.Generators.rc_line ~sections:10 () in
  let m = Circuit.Mna.assemble_rc nl in
  let opts = { (Reduce.default ~order:6) with Reduce.band = Some (1e7, 1e9) } in
  let model = Reduce.mna ~opts ~order:6 m in
  Alcotest.(check bool) "shifted" true (model.Model.shift > 0.0);
  Alcotest.(check bool) "no promise on the shifted path" false
    model.Model.real.Sympvl.Realisation.definite;
  Alcotest.(check int) "no structural errors" 0 (D.count D.Error (structural model m));
  let rep = Certify.run (Sympvl.Rom.Sympvl_model model) m in
  Alcotest.(check bool) "MOD008 reports the shift" true
    (List.exists (fun d -> d.D.code = "MOD008") rep.Certify.findings)

let test_stability_unstable_pole_listing () =
  (* a hand-built model with one unstable pole: T with a negative
     eigenvalue gives pole -1/λ > 0 *)
  let t_mat = Linalg.Mat.diag (Linalg.Vec.of_list [ 1e-9; -2e-10 ]) in
  let model =
    Model.make ~t_mat ~delta:(Linalg.Mat.identity 2)
      ~rho:(Linalg.Mat.of_arrays [| [| 1.0 |]; [| 0.5 |] |])
      ~shift:0.0 ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Unit ~definite:true ~deflations:0
      ~look_ahead_steps:0 ~exhausted:false
  in
  let m = Circuit.Mna.assemble_rc (terminated_bus ()) in
  let ds = structural model m in
  (* T ⪰ 0 was promised on the definite unshifted path: Theorem 5.1 is
     violated, an error *)
  Alcotest.(check bool) "violated certificate" true (severity_of "MOD002" ds = D.Error);
  let mod001 = List.find (fun d -> d.D.code = "MOD001") ds in
  Alcotest.(check bool) "not stable" true (mod001.D.severity <> D.Info);
  Alcotest.(check bool) "one unstable pole, at Re = 5e9" true
    (String.starts_with ~prefix:"sympvl: 1 unstable pole(s), worst Re = 5.000e+09"
       mod001.D.message)

(* ------------------------------------------------------------------ *)
(* Post-processing                                                    *)

let test_postprocess_definite_roundtrip () =
  let nl = terminated_bus () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:10 m in
  let pr = Postprocess.of_model model in
  Alcotest.(check bool) "stable expansion" true (Postprocess.is_stable pr);
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z1 = Sympvl.Realisation.eval model.Model.real s in
      let z2 = Postprocess.eval pr s in
      checkf (Printf.sprintf "pole/residue eval at %g" f) ~tol:1e-7 0.0
        (Linalg.Cmat.dist_max z1 z2 /. Float.max (Linalg.Cmat.max_abs z1) 1e-300))
    [ 1e6; 1e8; 1e9; 5e9 ]

let test_postprocess_indefinite_roundtrip () =
  let nl = Circuit.Generators.rlc_line ~r_load:50.0 ~sections:5 () in
  let m = Circuit.Mna.assemble nl in
  let model = Reduce.mna ~order:10 m in
  Alcotest.(check bool) "indefinite" false model.Model.definite;
  let pr = Postprocess.of_model model in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z1 = Sympvl.Realisation.eval model.Model.real s in
      let z2 = Postprocess.eval pr s in
      checkf (Printf.sprintf "indefinite eval at %g" f) ~tol:1e-5 0.0
        (Linalg.Cmat.dist_max z1 z2 /. Float.max (Linalg.Cmat.max_abs z1) 1e-300))
    [ 1e7; 1e8; 1e9 ]

let test_postprocess_stabilize_synthetic () =
  (* hand-build an expansion with one unstable pole and check that
     stabilisation removes exactly it *)
  let mk_term pole_re =
    {
      Postprocess.lambda = Linalg.Cx.re (-1.0 /. pole_re);
      pole = Linalg.Cx.re pole_re;
      residue_l = [| Linalg.Cx.one |];
      residue_r = [| Linalg.Cx.one |];
    }
  in
  let pr =
    {
      Postprocess.terms = [ mk_term (-1e9); mk_term (-3e8); mk_term 2e8 ];
      direct = Linalg.Cmat.create 1 1;
      p = 1;
      shift = 0.0;
      variable = Circuit.Mna.S;
      gain = Circuit.Mna.Unit;
    }
  in
  Alcotest.(check bool) "unstable before" false (Postprocess.is_stable pr);
  let st, dropped = Postprocess.stabilized pr in
  Alcotest.(check int) "dropped one" 1 dropped;
  Alcotest.(check bool) "stable after" true (Postprocess.is_stable st);
  Alcotest.(check int) "two terms left" 2 (List.length st.Postprocess.terms)

let () =
  Alcotest.run "baselines"
    [
      ( "awe",
        [
          Alcotest.test_case "low order accurate" `Quick test_awe_low_order_accurate;
          Alcotest.test_case "hankel rcond degrades" `Quick test_awe_hankel_degrades;
          Alcotest.test_case "matches sypvl" `Quick test_awe_matches_sypvl_low_order;
          Alcotest.test_case "rejects s² pencil" `Quick test_awe_rejects_s_squared;
        ] );
      ( "arnoldi",
        [
          Alcotest.test_case "accuracy" `Quick test_arnoldi_accuracy;
          Alcotest.test_case "congruence PSD" `Quick test_arnoldi_congruence_psd;
          Alcotest.test_case "vs sympvl" `Quick test_arnoldi_fewer_moments_than_sympvl;
        ] );
      ( "stability",
        [
          Alcotest.test_case "certified rc" `Quick test_stability_certified_rc;
          Alcotest.test_case "shifted not applicable" `Quick test_stability_not_applicable_shifted;
          Alcotest.test_case "unstable pole listing" `Quick test_stability_unstable_pole_listing;
        ] );
      ( "postprocess",
        [
          Alcotest.test_case "definite roundtrip" `Quick test_postprocess_definite_roundtrip;
          Alcotest.test_case "indefinite roundtrip" `Quick test_postprocess_indefinite_roundtrip;
          Alcotest.test_case "stabilize synthetic" `Quick test_postprocess_stabilize_synthetic;
        ] );
    ]
