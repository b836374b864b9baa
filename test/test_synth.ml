(* Tests for reduced-circuit synthesis: Foster scalar RC form and the
   multiport congruence realisation, validated in both frequency and
   time domain against the models they realise. *)

module Model = Sympvl.Model
module Reduce = Sympvl.Reduce

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

let terminated_bus wires sections =
  Circuit.Generators.coupled_rc_bus ~terminate:120.0 ~wires ~sections ()

(* ------------------------------------------------------------------ *)
(* Foster                                                             *)

let scalar_model () =
  let nl = terminated_bus 3 8 in
  let m = Circuit.Mna.assemble_rc nl in
  (Reduce.scalar ~order:8 ~port:0 m, m)

let test_foster_matches_model () =
  let model, _ = scalar_model () in
  let nl, st = Synth.Foster.synthesize model in
  Alcotest.(check bool) "has RC pairs" true (st.Synth.Foster.capacitors >= 6);
  let mna = Circuit.Mna.assemble_rc nl in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z_model = Linalg.Cmat.get (Sympvl.Realisation.eval model.Model.real s) 0 0 in
      let z_circuit = Linalg.Cmat.get (Simulate.Ac.z_at mna s) 0 0 in
      checkf (Printf.sprintf "foster at %g Hz" f) ~tol:1e-6 0.0
        (Linalg.Cx.abs Linalg.Cx.(z_model -: z_circuit) /. Linalg.Cx.abs z_model))
    [ 1e5; 1e7; 1e9; 1e10 ]

let test_foster_matches_original_circuit () =
  let model, m = scalar_model () in
  let nl, _ = Synth.Foster.synthesize model in
  let mna = Circuit.Mna.assemble_rc nl in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e8) in
  let z_full = Linalg.Cmat.get (Simulate.Ac.z_at m s) 0 0 in
  let z_syn = Linalg.Cmat.get (Simulate.Ac.z_at mna s) 0 0 in
  checkf "foster ≈ original" ~tol:1e-4 0.0
    (Linalg.Cx.abs Linalg.Cx.(z_full -: z_syn) /. Linalg.Cx.abs z_full)

let test_foster_rejects_multiport () =
  let nl = terminated_bus 2 4 in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:6 m in
  Alcotest.(check bool) "rejects p=2" true
    (try
       ignore (Synth.Foster.synthesize model);
       false
     with Synth.Foster.Not_scalar_rc -> true)

(* ------------------------------------------------------------------ *)
(* Multiport                                                          *)

let test_multiport_matches_model () =
  let nl = terminated_bus 3 10 in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:12 m in
  let names = Array.init 3 (fun i -> Printf.sprintf "p%d" i) in
  let syn, st = Synth.Multiport.synthesize ~port_names:names model in
  Alcotest.(check int) "nodes = order" model.Model.order st.Synth.Multiport.nodes;
  let mna = Circuit.Mna.assemble_rc syn in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z_model = Sympvl.Realisation.eval model.Model.real s in
      let z_circuit = Simulate.Ac.z_at mna s in
      checkf (Printf.sprintf "multiport at %g Hz" f) ~tol:1e-6 0.0
        (Linalg.Cmat.dist_max z_model z_circuit /. Linalg.Cmat.max_abs z_model))
    [ 1e5; 1e7; 1e9; 1e10 ]

let test_multiport_much_smaller () =
  let nl = terminated_bus 4 20 in
  let full_stats = Circuit.Netlist.stats nl in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:12 m in
  let names = Array.init 4 (fun i -> Printf.sprintf "p%d" i) in
  let _, st = Synth.Multiport.synthesize ~port_names:names model in
  Alcotest.(check bool)
    (Printf.sprintf "nodes %d << %d" st.Synth.Multiport.nodes full_stats.Circuit.Netlist.nodes)
    true
    (st.Synth.Multiport.nodes * 4 < full_stats.Circuit.Netlist.nodes)

let test_multiport_transient_against_full () =
  (* the Fig.-5 shape in miniature: full bus vs synthesized circuit
     under a ramp, waveforms must coincide *)
  let wires = 3 and sections = 10 in
  let drive = Circuit.Waveform.ramp ~rise:2e-10 1e-3 in
  let full = terminated_bus wires sections in
  let in0 = Circuit.Netlist.node full "w0s0" in
  let in2 = Circuit.Netlist.node full "w2s0" in
  Circuit.Netlist.add_current_source full 0 in0 drive;
  let opts = Simulate.Transient.default ~dt:5e-12 ~t_stop:3e-9 in
  let r_full = Simulate.Transient.run ~opts ~observe:[ in0; in2 ] full in
  let m = Circuit.Mna.assemble_rc (terminated_bus wires sections) in
  let model = Reduce.mna ~order:15 m in
  let names = Array.init wires (fun i -> Printf.sprintf "p%d" i) in
  let syn, _ = Synth.Multiport.synthesize ~port_names:names model in
  let p0 = Circuit.Netlist.node syn "p0" in
  let p2 = Circuit.Netlist.node syn "p2" in
  Circuit.Netlist.add_current_source syn 0 p0 drive;
  let r_syn = Simulate.Transient.run ~opts ~observe:[ p0; p2 ] syn in
  let dev = Simulate.Transient.max_deviation r_full r_syn in
  let scale = 1e-3 *. 120.0 in
  Alcotest.(check bool)
    (Printf.sprintf "transient dev %.2e" dev)
    true
    (dev < 2e-3 *. scale)

let test_multiport_negative_elements_reported () =
  (* negative elements are expected in general; the count must at
     least be consistent with the netlist *)
  let nl = terminated_bus 2 8 in
  let m = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:8 m in
  let syn, st =
    Synth.Multiport.synthesize ~port_names:[| "a"; "b" |] model
  in
  let negatives =
    List.length
      (List.filter
         (function
           | Circuit.Netlist.Resistor { ohms; _ } -> ohms < 0.0
           | Circuit.Netlist.Capacitor { farads; _ } -> farads < 0.0
           | _ -> false)
         (Circuit.Netlist.elements syn))
  in
  Alcotest.(check int) "negative count consistent" negatives
    st.Synth.Multiport.negative_elements;
  Alcotest.(check bool) "positivity flag consistent" true
    (Circuit.Netlist.all_values_positive syn = (negatives = 0))

let () =
  Alcotest.run "synth"
    [
      ( "foster",
        [
          Alcotest.test_case "matches model" `Quick test_foster_matches_model;
          Alcotest.test_case "matches original" `Quick test_foster_matches_original_circuit;
          Alcotest.test_case "rejects multiport" `Quick test_foster_rejects_multiport;
        ] );
      ( "multiport",
        [
          Alcotest.test_case "matches model" `Quick test_multiport_matches_model;
          Alcotest.test_case "much smaller" `Quick test_multiport_much_smaller;
          Alcotest.test_case "transient vs full" `Quick test_multiport_transient_against_full;
          Alcotest.test_case "negative elements" `Quick test_multiport_negative_elements_reported;
        ] );
    ]
