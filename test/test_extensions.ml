(* Tests for the extension layer: MPVL (two-sided Lanczos), voltage
   sources, network-parameter conversions, adaptive order selection. *)

module Model = Sympvl.Model
module Reduce = Sympvl.Reduce
module Mpvl = Sympvl.Mpvl

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

let terminated_bus wires sections =
  Circuit.Generators.coupled_rc_bus ~terminate:120.0 ~wires ~sections ()

let z_exact_dense (m : Circuit.Mna.t) s =
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
(* MPVL                                                               *)

let test_mpvl_matches_exact () =
  let nl = terminated_bus 3 10 in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Mpvl.reduce ~order:12 m in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let ze = z_exact_dense m s in
      let zm = Sympvl.Realisation.eval model.Mpvl.real s in
      checkf (Printf.sprintf "mpvl at %g" f) ~tol:1e-6 0.0
        (Linalg.Cmat.dist_max ze zm /. Linalg.Cmat.max_abs ze))
    [ 1e6; 1e8; 1e9 ]

let test_mpvl_agrees_with_sympvl () =
  (* on symmetric input both compute the same matrix-Padé approximant *)
  let nl = terminated_bus 2 12 in
  let m = Circuit.Mna.assemble_rc nl in
  let mpvl = Mpvl.reduce ~order:10 m in
  let sympvl = Reduce.mna ~order:10 m in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z1 = Sympvl.Realisation.eval mpvl.Mpvl.real s in
      let z2 = Sympvl.Realisation.eval sympvl.Model.real s in
      checkf (Printf.sprintf "agree at %g" f) ~tol:1e-7 0.0
        (Linalg.Cmat.dist_max z1 z2 /. Linalg.Cmat.max_abs z2))
    [ 1e6; 1e8; 5e9 ]

let test_mpvl_rlc_indefinite () =
  let nl = Circuit.Generators.rlc_line ~r_load:50.0 ~sections:8 () in
  let m = Circuit.Mna.assemble nl in
  let model = Mpvl.reduce ~order:16 m in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 2e8) in
  let ze = z_exact_dense m s in
  let zm = Sympvl.Realisation.eval model.Mpvl.real s in
  checkf "mpvl rlc" ~tol:1e-6 0.0 (Linalg.Cmat.dist_max ze zm /. Linalg.Cmat.max_abs ze)

let test_mpvl_poles_stable_rc () =
  let nl = terminated_bus 2 8 in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Mpvl.reduce ~order:8 m in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "pole in LHP" true (p.Complex.re <= 1e-3 *. Linalg.Cx.abs p))
    (Sympvl.Realisation.poles model.Mpvl.real)

let test_mpvl_lc_with_band () =
  let nl, _ = Circuit.Generators.peec_mesh ~segments:16 () in
  let m = Circuit.Mna.assemble_lc nl in
  let model = Mpvl.reduce ~band:(1e8, 5e9) ~order:14 m in
  Alcotest.(check bool) "shift used" true (model.Mpvl.real.Sympvl.Realisation.shift > 0.0);
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e9) in
  let ze = z_exact_dense m s in
  let zm = Sympvl.Realisation.eval model.Mpvl.real s in
  checkf "mpvl lc" ~tol:1e-5 0.0 (Linalg.Cmat.dist_max ze zm /. Linalg.Cmat.max_abs ze)

(* ------------------------------------------------------------------ *)
(* Voltage sources                                                    *)

let test_vsource_divider () =
  (* V source across a resistive divider: v(mid) = V·R2/(R1+R2) *)
  let nl = Circuit.Netlist.create () in
  let top = Circuit.Netlist.node nl "top" in
  let mid = Circuit.Netlist.node nl "mid" in
  Circuit.Netlist.add_voltage_source nl top 0 (Circuit.Waveform.Dc 3.0);
  Circuit.Netlist.add_resistor nl top mid 1000.0;
  Circuit.Netlist.add_resistor nl mid 0 2000.0;
  let opts = Simulate.Transient.default ~dt:1e-9 ~t_stop:1e-7 in
  let res = Simulate.Transient.run ~opts ~observe:[ mid; top ] nl in
  let _, wave_mid = List.nth res.Simulate.Transient.voltages 0 in
  let _, wave_top = List.nth res.Simulate.Transient.voltages 1 in
  checkf "divider" ~tol:1e-9 2.0 wave_mid.(res.Simulate.Transient.steps);
  checkf "source voltage enforced" ~tol:1e-9 3.0 wave_top.(res.Simulate.Transient.steps)

let test_vsource_rc_charge () =
  (* Thevenin driver charging a capacitor: v(t) = V(1 − e^{−t/RC}) *)
  let nl = Circuit.Netlist.create () in
  let out = Circuit.Netlist.node nl "out" in
  let r = 100.0 and c = 1e-9 and v0 = 1.5 in
  let tau = r *. c in
  (* a sharp step that is 0 at t = 0: the run starts from the true DC
     operating point, so a Dc source would start already settled *)
  Circuit.Netlist.add_thevenin_driver nl out r
    (Circuit.Waveform.Pwl [ (0.0, 0.0); (tau /. 300.0, v0) ]);
  Circuit.Netlist.add_capacitor nl out 0 c;
  let opts =
    {
      (Simulate.Transient.default ~dt:(tau /. 300.0) ~t_stop:(5.0 *. tau)) with
      Simulate.Transient.method_ = `Backward_euler;
    }
  in
  let res = Simulate.Transient.run ~opts ~observe:[ out ] nl in
  let _, wave = List.hd res.Simulate.Transient.voltages in
  let worst = ref 0.0 in
  for k = 10 to res.Simulate.Transient.steps do
    let expected = v0 *. (1.0 -. exp (-.res.Simulate.Transient.times.(k) /. tau)) in
    worst := Float.max !worst (Float.abs (wave.(k) -. expected))
  done;
  Alcotest.(check bool) (Printf.sprintf "charge err %.2e" !worst) true (!worst < 0.01 *. v0)

let test_vsource_parser () =
  let text = "V1 in 0 PWL(0 0 1n 5)\nR1 in out 1k\nC1 out 0 1p\n.port p out\n" in
  let nl = Circuit.Parser.parse_string text in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "vsources" 1 s.Circuit.Netlist.vsources;
  (* roundtrip keeps it *)
  let nl2 = Circuit.Parser.parse_string (Circuit.Parser.to_string nl) in
  Alcotest.(check int) "roundtrip" 1 (Circuit.Netlist.stats nl2).Circuit.Netlist.vsources

let test_vsource_rejected_by_mor () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  Circuit.Netlist.add_voltage_source nl a 0 (Circuit.Waveform.Dc 1.0);
  Circuit.Netlist.add_resistor nl a 0 50.0;
  Circuit.Netlist.add_port nl "p" a;
  Alcotest.(check bool) "MOR path rejects V sources" true
    (try
       ignore (Circuit.Mna.assemble_rc nl);
       false
     with Circuit.Diagnostic.User_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Network parameters                                                 *)

let test_netparams_roundtrip () =
  let nl = terminated_bus 3 6 in
  let m = Circuit.Mna.assemble_rc nl in
  let z = Simulate.Ac.z_at m (Linalg.Cx.im (2.0 *. Float.pi *. 1e9)) in
  let y = Simulate.Netparams.z_to_y z in
  let z2 = Simulate.Netparams.y_to_z y in
  checkf "z->y->z" ~tol:1e-9 0.0 (Linalg.Cmat.dist_max z z2 /. Linalg.Cmat.max_abs z);
  let s = Simulate.Netparams.z_to_s z in
  let z3 = Simulate.Netparams.s_to_z s in
  checkf "z->s->z" ~tol:1e-9 0.0 (Linalg.Cmat.dist_max z z3 /. Linalg.Cmat.max_abs z)

let test_netparams_s_passive () =
  (* a passive circuit's S matrix must be unit-bounded at any
     frequency *)
  let nl = terminated_bus 3 6 in
  let m = Circuit.Mna.assemble_rc nl in
  List.iter
    (fun f ->
      let z = Simulate.Ac.z_at m (Linalg.Cx.im (2.0 *. Float.pi *. f)) in
      Alcotest.(check bool)
        (Printf.sprintf "passive S at %g" f)
        true
        (Simulate.Netparams.is_passive_s (Simulate.Netparams.z_to_s z)))
    [ 1e6; 1e9; 1e11 ]

let test_netparams_matched_load () =
  (* a pure 50 Ω resistor port has S = 0 *)
  let z = Linalg.Cmat.of_real (Linalg.Mat.of_arrays [| [| 50.0 |] |]) in
  let s = Simulate.Netparams.z_to_s ~z0:50.0 z in
  checkf "matched" ~tol:1e-12 0.0 (Linalg.Cx.abs (Linalg.Cmat.get s 0 0))

(* ------------------------------------------------------------------ *)
(* Adaptive order                                                     *)

let test_to_accuracy_converges () =
  let nl = terminated_bus 3 15 in
  let m = Circuit.Mna.assemble_rc nl in
  let band = (1e6, 5e9) in
  let model, dev = Reduce.to_accuracy ~tol:1e-8 ~band m in
  Alcotest.(check bool) (Printf.sprintf "dev %.2e small" dev) true (dev <= 1e-8);
  (* the error estimate is honest: true error on the band is small *)
  let freqs = Simulate.Ac.log_freqs ~points:20 1e6 5e9 in
  let sw = Simulate.Ac.sweep m freqs in
  let err = Simulate.Ac.max_rel_error sw (Simulate.Ac.model_sweep (Sympvl.Realisation.eval model.Model.real) freqs) in
  Alcotest.(check bool) (Printf.sprintf "true err %.2e" err) true (err < 1e-6)

let test_to_accuracy_respects_max_order () =
  let nl = terminated_bus 3 15 in
  let m = Circuit.Mna.assemble_rc nl in
  let model, _ = Reduce.to_accuracy ~max_order:8 ~tol:1e-14 ~band:(1e6, 5e9) m in
  Alcotest.(check bool) "capped" true (model.Model.order <= 8)

let () =
  Alcotest.run "extensions"
    [
      ( "mpvl",
        [
          Alcotest.test_case "matches exact" `Quick test_mpvl_matches_exact;
          Alcotest.test_case "agrees with sympvl" `Quick test_mpvl_agrees_with_sympvl;
          Alcotest.test_case "rlc indefinite" `Quick test_mpvl_rlc_indefinite;
          Alcotest.test_case "poles stable rc" `Quick test_mpvl_poles_stable_rc;
          Alcotest.test_case "lc with band" `Quick test_mpvl_lc_with_band;
        ] );
      ( "vsource",
        [
          Alcotest.test_case "divider" `Quick test_vsource_divider;
          Alcotest.test_case "rc charge" `Quick test_vsource_rc_charge;
          Alcotest.test_case "parser" `Quick test_vsource_parser;
          Alcotest.test_case "rejected by MOR" `Quick test_vsource_rejected_by_mor;
        ] );
      ( "netparams",
        [
          Alcotest.test_case "roundtrips" `Quick test_netparams_roundtrip;
          Alcotest.test_case "s passive" `Quick test_netparams_s_passive;
          Alcotest.test_case "matched load" `Quick test_netparams_matched_load;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "converges" `Quick test_to_accuracy_converges;
          Alcotest.test_case "max order" `Quick test_to_accuracy_respects_max_order;
        ] );
    ]
