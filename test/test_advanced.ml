(* Tests for the advanced layer: subcircuit expansion, multipoint
   rational Krylov, balanced truncation, analytic time responses,
   and the rc_grid workload. *)

module Model = Sympvl.Model
module Reduce = Sympvl.Reduce
module Arnoldi = Sympvl.Arnoldi
module Btruncation = Sympvl.Btruncation
module Postprocess = Sympvl.Postprocess

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* subcircuits                                                        *)

let test_subckt_expansion () =
  let text =
    "* two RC sections as a subcircuit\n\
     .subckt rcsec a b\n\
     R1 a mid 1k\n\
     C1 mid 0 1p\n\
     R2 mid b 1k\n\
     .ends\n\
     X1 in n1 rcsec\n\
     X2 n1 out rcsec\n\
     R9 out 0 500\n\
     .port pin in\n\
     .port pout out\n"
  in
  let nl = Circuit.Parser.parse_string text in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "resistors" 5 s.Circuit.Netlist.resistors;
  Alcotest.(check int) "capacitors" 2 s.Circuit.Netlist.capacitors;
  (* instances have private mid nodes: in, n1, out, X1.mid, X2.mid *)
  Alcotest.(check int) "nodes" 5 s.Circuit.Netlist.nodes;
  (* electrically: R(in→n1) = 2k via X1 — DC impedance from pin is
     2k + 2k + 500 = 4.5k *)
  let mna = Circuit.Mna.assemble_rc nl in
  let z = Simulate.Ac.z_at mna (Linalg.Cx.re 0.0) in
  checkf "dc z11" ~tol:1e-6 4500.0 (Linalg.Cmat.get z 0 0).Complex.re

let test_subckt_nested () =
  let text =
    ".subckt leaf a b\n\
     R1 a b 100\n\
     .ends\n\
     .subckt pair a b\n\
     X1 a m leaf\n\
     X2 m b leaf\n\
     .ends\n\
     X0 in 0 pair\n\
     .port p in\n"
  in
  let nl = Circuit.Parser.parse_string text in
  let mna = Circuit.Mna.assemble_rc nl in
  let z = Simulate.Ac.z_at mna (Linalg.Cx.re 0.0) in
  checkf "nested dc" ~tol:1e-9 200.0 (Linalg.Cmat.get z 0 0).Complex.re

let test_subckt_mutual_inside () =
  let text =
    ".subckt coupled a b\n\
     L1 a 0 1n\n\
     L2 b 0 1n\n\
     K1 L1 L2 0.5\n\
     .ends\n\
     X1 p q coupled\n\
     .port pp p\n"
  in
  let nl = Circuit.Parser.parse_string text in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "inductors" 2 s.Circuit.Netlist.inductors_;
  Alcotest.(check int) "mutuals" 1 s.Circuit.Netlist.mutuals

let test_subckt_errors () =
  let check_raises text =
    try
      ignore (Circuit.Parser.parse_string text);
      false
    with Circuit.Parser.Parse_error _ -> true
  in
  Alcotest.(check bool) "unknown subckt" true (check_raises "X1 a b nosuch\n");
  Alcotest.(check bool) "pin mismatch" true
    (check_raises ".subckt s a b\nR1 a b 1\n.ends\nX1 n1 s\n");
  Alcotest.(check bool) "missing .ends" true (check_raises ".subckt s a b\nR1 a b 1\n");
  Alcotest.(check bool) "recursion capped" true
    (check_raises ".subckt s a b\nX1 a b s\n.ends\nX0 p q s\n")

(* ------------------------------------------------------------------ *)
(* multipoint rational Krylov                                         *)

let test_multipoint_beats_single_wideband () =
  (* terminated bus over 4 decades: same total order, two expansion
     points cover the band better than one *)
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:150.0 ~wires:2 ~sections:40 () in
  let m = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:40 1e6 2e10 in
  let sw = Simulate.Ac.sweep m freqs in
  let s_lo = Arnoldi.shift_of_hz m 1e7 and s_hi = Arnoldi.shift_of_hz m 3e9 in
  let multi = Arnoldi.reduce_multipoint ~points:[ (s_lo, 3); (s_hi, 3) ] m in
  let single = Arnoldi.reduce ~shift:0.0 ~order:(Sympvl.Realisation.order multi) m in
  let err t =
    Simulate.Ac.max_rel_error sw (Simulate.Ac.model_sweep (Sympvl.Realisation.eval t) freqs)
  in
  let e_multi = err multi and e_single = err single in
  Alcotest.(check bool)
    (Printf.sprintf "multi %.2e <= single %.2e" e_multi e_single)
    true
    (e_multi <= e_single);
  Alcotest.(check bool) "multi accurate" true (e_multi < 1e-3)

let test_multipoint_interpolates_each_point () =
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:150.0 ~wires:2 ~sections:30 () in
  let m = Circuit.Mna.assemble_rc nl in
  let f1 = 1e7 and f2 = 1e9 in
  let multi =
    Arnoldi.reduce_multipoint
      ~points:[ (Arnoldi.shift_of_hz m f1, 2); (Arnoldi.shift_of_hz m f2, 2) ]
      m
  in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let ze = Simulate.Ac.z_at m s in
      let zm = Sympvl.Realisation.eval multi s in
      checkf (Printf.sprintf "interpolation near %g" f) ~tol:1e-5 0.0
        (Linalg.Cmat.dist_max ze zm /. Linalg.Cmat.max_abs ze))
    [ f1; f2 ]

(* ------------------------------------------------------------------ *)
(* balanced truncation                                                *)

let bt_workload () =
  (* nonsingular SPD G: a terminated bus with ground resistors *)
  let nl = Circuit.Generators.random_rc ~ports:2 ~nodes:30 ~extra_edges:25 ~seed:9 () in
  Circuit.Mna.assemble_rc nl

let test_bt_exact_at_full_order () =
  let m = bt_workload () in
  let bt = Btruncation.reduce ~order:m.Circuit.Mna.n m in
  let s = Linalg.Cx.im 1e9 in
  let ze = Simulate.Ac.z_at m s in
  let zb = Sympvl.Realisation.eval bt.Btruncation.real s in
  checkf "full order exact" ~tol:1e-7 0.0
    (Linalg.Cmat.dist_max ze zb /. Linalg.Cmat.max_abs ze)

let test_bt_stable_and_bounded () =
  let m = bt_workload () in
  let bt = Btruncation.reduce ~order:6 m in
  Array.iter
    (fun p -> Alcotest.(check bool) "pole < 0" true (p.Complex.re < 0.0))
    (Sympvl.Realisation.poles bt.Btruncation.real);
  (* the H∞ bound holds on a frequency sample *)
  let freqs = Simulate.Ac.log_freqs ~points:25 1e5 1e11 in
  let sw = Simulate.Ac.sweep m freqs in
  Array.iteri
    (fun k f ->
      ignore f;
      let d = Linalg.Cmat.dist_max sw.Simulate.Ac.z.(k) (Sympvl.Realisation.eval bt.Btruncation.real (Linalg.Cx.im (2.0 *. Float.pi *. freqs.(k)))) in
      Alcotest.(check bool)
        (Printf.sprintf "bound at %g: %.2e <= %.2e" freqs.(k) d bt.Btruncation.error_bound)
        true
        (d <= bt.Btruncation.error_bound *. (1.0 +. 1e-6) +. 1e-12))
    freqs

let test_bt_hsv_descending () =
  let m = bt_workload () in
  let bt = Btruncation.reduce ~order:4 m in
  let hsv = bt.Btruncation.hsv in
  for i = 0 to Linalg.Vec.dim hsv - 2 do
    Alcotest.(check bool) "descending" true (hsv.(i) >= hsv.(i + 1) -. 1e-18)
  done

let test_bt_rejects_indefinite () =
  let nl = Circuit.Generators.rlc_line ~r_load:50.0 ~sections:4 () in
  let m = Circuit.Mna.assemble nl in
  Alcotest.(check bool) "rejects RLC" true
    (try
       ignore (Btruncation.reduce ~order:4 m);
       false
     with Btruncation.Not_definite -> true)

(* ------------------------------------------------------------------ *)
(* analytic time responses                                            *)

let test_step_response_matches_transient () =
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:150.0 ~wires:2 ~sections:10 () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:10 m in
  let pr = Postprocess.of_model model in
  (* simulate the reduced model as a stamp under a sharp current step *)
  let deck = Circuit.Netlist.create () in
  let p0 = Circuit.Netlist.node deck "p0" in
  let p1 = Circuit.Netlist.node deck "p1" in
  let i0 = 1e-3 in
  Circuit.Netlist.add_current_source deck 0 p0
    (Circuit.Waveform.Pwl [ (0.0, 0.0); (1e-13, i0) ]);
  let stamp = { Simulate.Transient.model; terminals = [| (p0, 0); (p1, 0) |] } in
  let opts = Simulate.Transient.default ~dt:1e-12 ~t_stop:1e-9 in
  let res = Simulate.Transient.run ~opts ~reduced:[ stamp ] ~observe:[ p0; p1 ] deck in
  let _, wave0 = List.nth res.Simulate.Transient.voltages 0 in
  let _, wave1 = List.nth res.Simulate.Transient.voltages 1 in
  List.iter
    (fun k ->
      let t = res.Simulate.Transient.times.(k) in
      let v = Postprocess.step_response pr t in
      checkf
        (Printf.sprintf "analytic vs transient (driven) at %g" t)
        ~tol:(2e-3 *. i0 *. 150.0)
        (i0 *. Linalg.Mat.get v 0 0)
        wave0.(k);
      checkf
        (Printf.sprintf "analytic vs transient (victim) at %g" t)
        ~tol:(2e-3 *. i0 *. 150.0)
        (i0 *. Linalg.Mat.get v 1 0)
        wave1.(k))
    [ 100; 400; 900 ]

(* ------------------------------------------------------------------ *)
(* rc_grid workload                                                   *)

let test_rc_grid_structure () =
  let nl = Circuit.Generators.rc_grid ~rows:6 ~cols:8 () in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "nodes" 48 s.Circuit.Netlist.nodes;
  (* edges: rows·(cols−1) + cols·(rows−1) + 1 ground tie *)
  Alcotest.(check int) "resistors" ((6 * 7) + (8 * 5) + 1) s.Circuit.Netlist.resistors;
  Alcotest.(check bool) "ports on boundary" true (Circuit.Netlist.port_count nl >= 4)

let test_rc_grid_reduces () =
  let nl = Circuit.Generators.rc_grid ~rows:8 ~cols:8 ~pitch_pads:7 () in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:12 m in
  Alcotest.(check bool) "definite" true model.Model.definite;
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e9) in
  let ze = Simulate.Ac.z_at m s in
  let zm = Sympvl.Realisation.eval model.Model.real s in
  Alcotest.(check bool) "grid accuracy" true
    (Linalg.Cmat.dist_max ze zm /. Linalg.Cmat.max_abs ze < 1e-5)

let () =
  Alcotest.run "advanced"
    [
      ( "subckt",
        [
          Alcotest.test_case "expansion" `Quick test_subckt_expansion;
          Alcotest.test_case "nested" `Quick test_subckt_nested;
          Alcotest.test_case "mutual inside" `Quick test_subckt_mutual_inside;
          Alcotest.test_case "errors" `Quick test_subckt_errors;
        ] );
      ( "multipoint",
        [
          Alcotest.test_case "beats single wideband" `Quick test_multipoint_beats_single_wideband;
          Alcotest.test_case "interpolates each point" `Quick test_multipoint_interpolates_each_point;
        ] );
      ( "btruncation",
        [
          Alcotest.test_case "exact at full order" `Quick test_bt_exact_at_full_order;
          Alcotest.test_case "stable and bounded" `Quick test_bt_stable_and_bounded;
          Alcotest.test_case "hsv descending" `Quick test_bt_hsv_descending;
          Alcotest.test_case "rejects indefinite" `Quick test_bt_rejects_indefinite;
        ] );
      ( "time_response",
        [
          Alcotest.test_case "step vs transient" `Quick test_step_response_matches_transient;
        ] );
      ( "rc_grid",
        [
          Alcotest.test_case "structure" `Quick test_rc_grid_structure;
          Alcotest.test_case "reduces" `Quick test_rc_grid_reduces;
        ] );
    ]
