(* Tests for the simulation layer: AC sweeps against dense reference,
   transient integration against closed-form solutions, reduced-model
   stamps against full-circuit simulation. *)

module Model = Sympvl.Model
module Reduce = Sympvl.Reduce

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

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
(* AC                                                                 *)

let test_ac_matches_dense_rc () =
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:100.0 ~wires:3 ~sections:6 () in
  let m = Circuit.Mna.assemble_rc nl in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z_sky = Simulate.Ac.z_at m s in
      let z_dense = z_exact_dense m s in
      checkf (Printf.sprintf "at %g Hz" f) ~tol:1e-9 0.0
        (Linalg.Cmat.dist_max z_sky z_dense /. Linalg.Cmat.max_abs z_dense))
    [ 1e6; 1e8; 1e10 ]

let test_ac_matches_dense_rlc () =
  let nl = Circuit.Generators.rlc_line ~r_load:75.0 ~sections:6 () in
  let m = Circuit.Mna.assemble nl in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 5e8) in
  let z_sky = Simulate.Ac.z_at m s in
  let z_dense = z_exact_dense m s in
  checkf "rlc skyline = dense" ~tol:1e-8 0.0
    (Linalg.Cmat.dist_max z_sky z_dense /. Linalg.Cmat.max_abs z_dense)

let test_ac_lc_two_port () =
  let nl, out_l = Circuit.Generators.peec_mesh ~segments:16 () in
  let m = Circuit.Mna.assemble_lc nl in
  let w = Circuit.Mna.observe_inductor_current nl m out_l in
  let m2 = Circuit.Mna.append_output_column m w "iout" in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1.3e9) in
  let z_sky = Simulate.Ac.z_at m2 s in
  let z_dense = z_exact_dense m2 s in
  checkf "lc two-port" ~tol:1e-8 0.0
    (Linalg.Cmat.dist_max z_sky z_dense /. Linalg.Cmat.max_abs z_dense)

let test_ac_sweep_grid () =
  let freqs = Simulate.Ac.log_freqs ~points:31 1e6 1e9 in
  Alcotest.(check int) "points" 31 (Array.length freqs);
  checkf "first" ~tol:1.0 1e6 freqs.(0);
  checkf "last" ~tol:1.0 1e9 freqs.(30);
  let nl = Circuit.Generators.rc_line ~sections:5 () in
  let m = Circuit.Mna.assemble_rc nl in
  let sw = Simulate.Ac.sweep m freqs in
  Alcotest.(check int) "z per point" 31 (Array.length sw.Simulate.Ac.z);
  (* reduced model matches the sweep everywhere *)
  let opts = { (Reduce.default ~order:8) with Reduce.band = Some (1e6, 1e9) } in
  let model = Reduce.mna ~opts ~order:8 m in
  let zm = Simulate.Ac.model_sweep (Sympvl.Realisation.eval model.Model.real) freqs in
  Alcotest.(check bool) "model matches sweep" true
    (Simulate.Ac.max_rel_error sw zm < 1e-6)

(* a workspace answers only for the MNA system it was built from, even
   one assembled from the same netlist *)
let test_ac_workspace_mismatch () =
  let nl = Circuit.Generators.rc_line ~sections:5 () in
  let m = Circuit.Mna.assemble_rc nl and other = Circuit.Mna.assemble_rc nl in
  let ws = Simulate.Ac.workspace m and s = Linalg.Cx.im 1e9 in
  let z = Simulate.Ac.z_at_ws m ws s in
  Alcotest.(check bool) "matching pair" true
    (Linalg.Cmat.dist_max z (z_exact_dense m s) <= 1e-9 *. Linalg.Cmat.max_abs z);
  Alcotest.check_raises "other MNA system"
    (Invalid_argument "Ac.z_at_ws: the workspace was not built from this MNA system")
    (fun () -> ignore (Simulate.Ac.z_at_ws other ws s))

(* ------------------------------------------------------------------ *)
(* Transient: closed-form checks                                      *)

(* Current step I into parallel RC: v(t) = I·R·(1 − e^{−t/RC}) *)
let test_transient_rc_step () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  let r = 1000.0 and c = 1e-9 and i0 = 1e-3 in
  Circuit.Netlist.add_resistor nl a 0 r;
  Circuit.Netlist.add_capacitor nl a 0 c;
  let tau = r *. c in
  (* a Dc source would start at its settled operating point (the run
     begins from the DC solution); a one-step ramp gives the charging
     transient the closed form describes *)
  Circuit.Netlist.add_current_source nl 0 a
    (Circuit.Waveform.Pwl [ (0.0, 0.0); (tau /. 200.0, i0) ]);
  let opts = Simulate.Transient.default ~dt:(tau /. 200.0) ~t_stop:(5.0 *. tau) in
  let res = Simulate.Transient.run ~opts ~observe:[ a ] nl in
  let _, wave = List.hd res.Simulate.Transient.voltages in
  (* the one-step ramp shifts the ideal step by rise/2 *)
  let vt k =
    let t = res.Simulate.Transient.times.(k) -. (tau /. 400.0) in
    i0 *. r *. (1.0 -. exp (-.t /. tau))
  in
  let worst = ref 0.0 in
  for k = 10 to res.Simulate.Transient.steps do
    worst := Float.max !worst (Float.abs (wave.(k) -. vt k))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rc step err %.2e" !worst)
    true
    (!worst < 2e-3 *. i0 *. r)

(* Series RL driven by current... instead: L to ground with R in
   parallel, current step: i_L(t) = I(1 − e^{−tR/L}), v = IR e^{−tR/L} *)
let test_transient_rl_step () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  let r = 50.0 and l = 1e-6 and i0 = 2e-3 in
  Circuit.Netlist.add_resistor nl a 0 r;
  Circuit.Netlist.add_inductor nl a 0 l;
  let tau = l /. r in
  (* one-step ramp: the run starts at the DC operating point, so a Dc
     source would begin settled; backward Euler damps the start-up *)
  Circuit.Netlist.add_current_source nl 0 a
    (Circuit.Waveform.Pwl [ (0.0, 0.0); (tau /. 400.0, i0) ]);
  let opts =
    {
      (Simulate.Transient.default ~dt:(tau /. 400.0) ~t_stop:(4.0 *. tau)) with
      Simulate.Transient.method_ = `Backward_euler;
    }
  in
  let res = Simulate.Transient.run ~opts ~observe:[ a ] nl in
  let _, wave = List.hd res.Simulate.Transient.voltages in
  let worst = ref 0.0 in
  for k = 10 to res.Simulate.Transient.steps do
    let expected = i0 *. r *. exp (-.res.Simulate.Transient.times.(k) /. tau) in
    worst := Float.max !worst (Float.abs (wave.(k) -. expected))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rl step err %.2e" !worst)
    true
    (!worst < 1e-2 *. i0 *. r)

let test_transient_backends_agree () =
  (* same circuit through dense (forced via reduced=[] + small) and
     skyline (larger): build a medium RC chain; run BE vs TR also *)
  let nl = Circuit.Generators.rc_line ~sections:80 () in
  let input = Circuit.Netlist.node nl "n0" in
  let out = Circuit.Netlist.node nl "n80" in
  Circuit.Netlist.add_current_source nl 0 input
    (Circuit.Waveform.ramp ~rise:1e-9 1e-3);
  let opts =
    {
      (Simulate.Transient.default ~dt:2e-11 ~t_stop:4e-9) with
      Simulate.Transient.method_ = `Backward_euler;
    }
  in
  let res_be = Simulate.Transient.run ~opts ~observe:[ out ] nl in
  Alcotest.(check bool) "skyline chosen" true
    (res_be.Simulate.Transient.backend = `Skyline);
  let opts_tr =
    { opts with Simulate.Transient.method_ = `Trapezoidal }
  in
  let res_tr = Simulate.Transient.run ~opts:opts_tr ~observe:[ out ] nl in
  (* BE is O(dt), TR is O(dt²): they agree to the BE truncation level *)
  let dev = Simulate.Transient.max_deviation res_be res_tr in
  Alcotest.(check bool) (Printf.sprintf "BE vs TR %.2e" dev) true (dev < 1e-3)

let test_transient_nonlinear_diode () =
  (* current source into a diode-like conductance: v settles where
     i_d(v) = I, i.e. v = vt·ln(1 + I/is) *)
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  let is_ = 1e-12 and vt = 0.025 in
  Circuit.Netlist.add nl
    (Circuit.Netlist.Nonlinear_conductance
       {
         name = "D1";
         n1 = a;
         n2 = 0;
         i_of_v = (fun v -> is_ *. (exp (Float.min (v /. vt) 60.0) -. 1.0));
         di_dv = (fun v -> is_ /. vt *. exp (Float.min (v /. vt) 60.0));
       });
  Circuit.Netlist.add_capacitor nl a 0 1e-12;
  let i0 = 1e-3 in
  Circuit.Netlist.add_current_source nl 0 a (Circuit.Waveform.ramp ~rise:1e-10 i0);
  let opts = Simulate.Transient.default ~dt:1e-11 ~t_stop:3e-9 in
  let res = Simulate.Transient.run ~opts ~observe:[ a ] nl in
  let _, wave = List.hd res.Simulate.Transient.voltages in
  let v_final = wave.(res.Simulate.Transient.steps) in
  let expected = vt *. log (1.0 +. (i0 /. is_)) in
  checkf "diode operating point" ~tol:1e-3 expected v_final;
  Alcotest.(check bool) "newton iterated" true
    (res.Simulate.Transient.newton_iterations > res.Simulate.Transient.steps)

(* ------------------------------------------------------------------ *)
(* Reduced-model stamp vs full circuit                                *)

let test_transient_reduced_stamp_matches_full () =
  (* drive a terminated RC bus directly, and via its reduced model
     stamped into a simulator deck; waveforms must agree *)
  let wires = 3 and sections = 10 in
  let full = Circuit.Generators.coupled_rc_bus ~terminate:150.0 ~wires ~sections () in
  let drive_wave = Circuit.Waveform.ramp ~rise:2e-10 2e-3 in
  let in0 = Circuit.Netlist.node full "w0s0" in
  let in1 = Circuit.Netlist.node full "w1s0" in
  Circuit.Netlist.add_current_source full 0 in0 drive_wave;
  let opts = Simulate.Transient.default ~dt:5e-12 ~t_stop:3e-9 in
  let res_full = Simulate.Transient.run ~opts ~observe:[ in0; in1 ] full in
  (* reduced deck: ports of the bus → reduced stamp on fresh nodes *)
  let mna = Circuit.Mna.assemble_rc (Circuit.Generators.coupled_rc_bus ~terminate:150.0 ~wires ~sections ()) in
  let model = Reduce.mna ~order:12 mna in
  let deck = Circuit.Netlist.create () in
  let ports =
    Array.init wires (fun w -> (Circuit.Netlist.node deck (Printf.sprintf "p%d" w), 0))
  in
  Circuit.Netlist.add_current_source deck 0 (fst ports.(0)) drive_wave;
  let stamp = { Simulate.Transient.model; terminals = ports } in
  let res_red =
    Simulate.Transient.run ~opts ~reduced:[ stamp ]
      ~observe:[ fst ports.(0); fst ports.(1) ]
      deck
  in
  Alcotest.(check bool) "dense backend for stamps" true
    (res_red.Simulate.Transient.backend = `Dense);
  let dev = Simulate.Transient.max_deviation res_full res_red in
  let scale = 2e-3 *. 150.0 in
  Alcotest.(check bool)
    (Printf.sprintf "stamp matches full, dev %.2e" dev)
    true
    (dev < 1e-3 *. scale)

let () =
  Alcotest.run "simulate"
    [
      ( "ac",
        [
          Alcotest.test_case "matches dense rc" `Quick test_ac_matches_dense_rc;
          Alcotest.test_case "matches dense rlc" `Quick test_ac_matches_dense_rlc;
          Alcotest.test_case "lc two-port" `Quick test_ac_lc_two_port;
          Alcotest.test_case "sweep grid and model" `Quick test_ac_sweep_grid;
          Alcotest.test_case "workspace of another system" `Quick test_ac_workspace_mismatch;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc step closed form" `Quick test_transient_rc_step;
          Alcotest.test_case "rl step closed form" `Quick test_transient_rl_step;
          Alcotest.test_case "backends and methods agree" `Quick test_transient_backends_agree;
          Alcotest.test_case "nonlinear diode newton" `Quick test_transient_nonlinear_diode;
        ] );
      ( "reduced_stamp",
        [
          Alcotest.test_case "matches full circuit" `Quick
            test_transient_reduced_stamp_matches_full;
        ] );
    ]
