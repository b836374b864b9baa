(* End-to-end integration tests: full pipelines across parser, MNA,
   reduction, synthesis, simulation; parser fuzzing; failure
   injection; determinism. *)

module Model = Sympvl.Model
module Reduce = Sympvl.Reduce

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* pipelines                                                          *)

(* generate → print → parse → assemble → reduce → synthesize → print →
   parse → assemble → AC-compare against the original *)
let test_pipeline_roundtrip_multiport () =
  let original = Circuit.Generators.coupled_rc_bus ~terminate:100.0 ~wires:3 ~sections:8 () in
  let text = Circuit.Parser.to_string original in
  let reparsed = Circuit.Parser.parse_string text in
  let mna = Circuit.Mna.assemble_rc reparsed in
  let model = Reduce.mna ~order:12 mna in
  let names = Array.init 3 (fun i -> Printf.sprintf "port%d" i) in
  let syn, _ = Synth.Multiport.synthesize ~port_names:names model in
  let syn2 = Circuit.Parser.parse_string (Circuit.Parser.to_string syn) in
  let mna_syn = Circuit.Mna.assemble_rc syn2 in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z0 = Simulate.Ac.z_at mna s in
      let z1 = Simulate.Ac.z_at mna_syn s in
      checkf (Printf.sprintf "pipeline at %g" f) ~tol:1e-5 0.0
        (Linalg.Cmat.dist_max z0 z1 /. Linalg.Cmat.max_abs z0))
    [ 1e6; 1e8; 2e9 ]

(* scalar Foster pipeline validated in the time domain *)
let test_pipeline_foster_transient () =
  let original = Circuit.Generators.coupled_rc_bus ~terminate:100.0 ~wires:2 ~sections:8 () in
  let mna = Circuit.Mna.assemble_rc original in
  let model = Reduce.scalar ~order:8 ~port:0 mna in
  let foster, _ = Synth.Foster.synthesize model in
  let drive = Circuit.Waveform.ramp ~rise:2e-10 1e-3 in
  let opts = Simulate.Transient.default ~dt:1e-11 ~t_stop:2e-9 in
  (* original circuit, driven at port 0 *)
  let full = Circuit.Generators.coupled_rc_bus ~terminate:100.0 ~wires:2 ~sections:8 () in
  let p0 = Circuit.Netlist.node full "w0s0" in
  Circuit.Netlist.add_current_source full 0 p0 drive;
  let r_full = Simulate.Transient.run ~opts ~observe:[ p0 ] full in
  (* foster circuit *)
  let pf = Circuit.Netlist.node foster "port" in
  Circuit.Netlist.add_current_source foster 0 pf drive;
  let r_foster = Simulate.Transient.run ~opts ~observe:[ pf ] foster in
  let dev = Simulate.Transient.max_deviation r_full r_foster in
  Alcotest.(check bool) (Printf.sprintf "foster transient dev %.2e" dev) true (dev < 2e-3)

(* netlist file I/O through a temp file *)
let test_pipeline_file_io () =
  let nl = Circuit.Generators.rc_tree ~depth:3 () in
  let path = Filename.temp_file "sympvl_test" ".sp" in
  let oc = open_out path in
  output_string oc (Circuit.Parser.to_string nl);
  close_out oc;
  let nl2 = Circuit.Parser.parse_file path in
  Sys.remove path;
  Alcotest.(check bool) "same stats" true (Circuit.Netlist.stats nl2 = Circuit.Netlist.stats nl)

(* PEEC end-to-end with the generalised output column *)
let test_pipeline_peec_output_column () =
  let nl, out_l = Circuit.Generators.peec_mesh ~segments:14 () in
  let mna = Circuit.Mna.assemble_lc nl in
  let w = Circuit.Mna.observe_inductor_current nl mna out_l in
  let mna = Circuit.Mna.append_output_column mna w "iout" in
  let opts = { (Reduce.default ~order:14) with Reduce.band = Some (1e8, 3e9) } in
  let model = Reduce.mna ~opts ~order:14 mna in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 8e8) in
  let ze = Simulate.Ac.z_at mna s in
  let zm = Sympvl.Realisation.eval model.Model.real s in
  checkf "peec pipeline" ~tol:1e-6 0.0
    (Linalg.Cmat.dist_max ze zm /. Linalg.Cmat.max_abs ze)

(* determinism: bit-identical models from identical inputs *)
let test_determinism () =
  let build () =
    let nl = Circuit.Generators.random_rc ~nodes:18 ~extra_edges:12 ~seed:77 () in
    Reduce.mna ~order:8 (Circuit.Mna.assemble_rc nl)
  in
  let a = build () and b = build () in
  checkf "identical T" ~tol:0.0 0.0 (Linalg.Mat.dist_max a.Model.t_mat b.Model.t_mat);
  checkf "identical rho" ~tol:0.0 0.0 (Linalg.Mat.dist_max a.Model.rho b.Model.rho)

(* ------------------------------------------------------------------ *)
(* failure injection                                                  *)

let test_failure_order_exceeds_dimension () =
  (* requesting order > N exhausts the Krylov space; the model must
     flag it and still evaluate exactly *)
  let nl = Circuit.Generators.random_rc ~nodes:6 ~extra_edges:4 ~seed:3 () in
  let mna = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:50 mna in
  Alcotest.(check bool) "exhausted flagged" true model.Model.exhausted;
  Alcotest.(check bool) "order capped" true (model.Model.order <= 6);
  let s = Linalg.Cx.im 1e8 in
  let gd = Sparse.Csr.to_dense mna.Circuit.Mna.g in
  let cd = Sparse.Csr.to_dense mna.Circuit.Mna.c in
  let k = Linalg.Cmat.lincomb Linalg.Cx.one gd s cd in
  let b = Linalg.Cmat.of_real mna.Circuit.Mna.b in
  let ze = Linalg.Cmat.mul (Linalg.Cmat.transpose b) (Linalg.Cmat.solve k b) in
  checkf "exact at exhaustion" ~tol:1e-8 0.0
    (Linalg.Cmat.dist_max ze (Sympvl.Realisation.eval model.Model.real s) /. Linalg.Cmat.max_abs ze)

let test_failure_skyline_fallback () =
  (* a matrix with a zero leading pivot under every ordering: the
     unpivoted sparse factor breaks down (factor_with has no fallback
     and reports the row), and Pencil.factor recovers through the dense
     Bunch–Kaufman fallback *)
  let m = Linalg.Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let csr = Sparse.Csr.of_dense m in
  let no_c = Sparse.Csr.of_triplet (Sparse.Triplet.create 2 2) in
  let ctx = Sympvl.Pencil.of_matrices csr no_c in
  Alcotest.(check bool) "sparse path raises" true
    (try
       ignore (Sympvl.Pencil.factor_with ctx ~shift:0.0 ~extra:[||]);
       false
     with Sympvl.Factor.Singular _ -> true);
  let f = Sympvl.Pencil.factor ctx ~shift:0.0 in
  Alcotest.(check bool) "fallback is dense" true (f.Sympvl.Factor.kind = `Dense);
  let x = Linalg.Vec.create 2 in
  f.Sympvl.Factor.solve [| 1.0; 2.0 |] x;
  checkf "solve via fallback x0" ~tol:1e-12 2.0 x.(0);
  checkf "solve via fallback x1" ~tol:1e-12 1.0 x.(1)

let test_failure_newton_divergence () =
  (* a pathological nonlinearity with a lying derivative starves
     Newton; the simulator must raise, not loop or return garbage *)
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  Circuit.Netlist.add nl
    (Circuit.Netlist.Nonlinear_conductance
       {
         name = "bad";
         n1 = a;
         n2 = 0;
         i_of_v = (fun v -> 1e3 *. v *. v *. v);
         di_dv = (fun _ -> 1e-12);
         (* wrong on purpose *)
       });
  Circuit.Netlist.add_capacitor nl a 0 1e-12;
  Circuit.Netlist.add_current_source nl 0 a (Circuit.Waveform.ramp ~rise:1e-10 1.0);
  let opts =
    { (Simulate.Transient.default ~dt:1e-10 ~t_stop:1e-9) with Simulate.Transient.newton_max = 5 }
  in
  Alcotest.(check bool) "raises Convergence_failure" true
    (try
       ignore (Simulate.Transient.run ~opts ~observe:[ a ] nl);
       false
     with Simulate.Transient.Convergence_failure _ -> true)

let test_failure_all_ports_dependent () =
  (* two identical port columns: one must deflate, and the model of
     the surviving space stays accurate *)
  let nl = Circuit.Generators.rc_line ~sections:10 ~output_port:false () in
  let input = Circuit.Netlist.node nl "n0" in
  Circuit.Netlist.add_resistor nl (Circuit.Netlist.node nl "n10") 0 50.0;
  Circuit.Netlist.add_port nl "dup" input;
  let mna = Circuit.Mna.assemble_rc nl in
  let model = Reduce.mna ~order:8 mna in
  Alcotest.(check bool) "deflated" true (model.Model.deflations >= 1);
  let s = Linalg.Cx.im 1e8 in
  let z = Sympvl.Realisation.eval model.Model.real s in
  (* both ports are the same node: all four entries equal *)
  checkf "Z00 = Z01" ~tol:1e-9 0.0
    (Linalg.Cx.abs
       Linalg.Cx.(Linalg.Cmat.get z 0 0 -: Linalg.Cmat.get z 0 1));
  checkf "Z00 = Z11" ~tol:1e-9 0.0
    (Linalg.Cx.abs
       Linalg.Cx.(Linalg.Cmat.get z 0 0 -: Linalg.Cmat.get z 1 1))

let test_failure_empty_netlist_rejected () =
  let nl = Circuit.Netlist.create () in
  Alcotest.(check bool) "no ports rejected" true
    (try
       ignore (Circuit.Mna.assemble_rc nl);
       false
     with Circuit.Diagnostic.User_error _ -> true)

(* ------------------------------------------------------------------ *)
(* parser fuzzing                                                     *)

let garbage_line_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_bound 40);
        map
          (fun (a, b, c) -> Printf.sprintf "R%d %s %s" a b c)
          (triple small_nat (string_size ~gen:printable (int_bound 8))
             (string_size ~gen:printable (int_bound 8)));
        map (fun v -> Printf.sprintf ".port %s" v) (string_size ~gen:printable (int_bound 10));
      ])

let prop_parser_never_crashes =
  QCheck.Test.make ~count:200 ~name:"parser: garbage raises Parse_error or parses"
    (QCheck.make garbage_line_gen)
    (fun line ->
      match Circuit.Parser.parse_string (line ^ "\n") with
      | _ -> true
      | exception Circuit.Parser.Parse_error _ -> true
      | exception Invalid_argument _ -> true (* netlist-level validation *)
      | exception _ -> false)

let prop_roundtrip_random_rc =
  QCheck.Test.make ~count:40 ~name:"parser: random RC netlists roundtrip"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let nl = Circuit.Generators.random_rc ~nodes:10 ~extra_edges:8 ~seed () in
      let nl2 = Circuit.Parser.parse_string (Circuit.Parser.to_string nl) in
      Circuit.Netlist.stats nl2 = Circuit.Netlist.stats nl)

let prop_reduce_always_finite =
  QCheck.Test.make ~count:25 ~name:"pipeline: random RC reductions evaluate finite"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let nl = Circuit.Generators.random_rc ~ports:2 ~nodes:12 ~extra_edges:8 ~seed () in
      let model = Reduce.mna ~order:6 (Circuit.Mna.assemble_rc nl) in
      let z = Sympvl.Realisation.eval model.Model.real (Linalg.Cx.make 1e5 1e9) in
      let ok = ref true in
      for i = 0 to 1 do
        for j = 0 to 1 do
          if not (Linalg.Cx.is_finite (Linalg.Cmat.get z i j)) then ok := false
        done
      done;
      !ok)

let () =
  let qsuite =
    List.map (fun t -> Qtest.to_alcotest t)
      [ prop_parser_never_crashes; prop_roundtrip_random_rc; prop_reduce_always_finite ]
  in
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "roundtrip multiport" `Quick test_pipeline_roundtrip_multiport;
          Alcotest.test_case "foster transient" `Quick test_pipeline_foster_transient;
          Alcotest.test_case "file io" `Quick test_pipeline_file_io;
          Alcotest.test_case "peec output column" `Quick test_pipeline_peec_output_column;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "order exceeds dimension" `Quick test_failure_order_exceeds_dimension;
          Alcotest.test_case "skyline fallback" `Quick test_failure_skyline_fallback;
          Alcotest.test_case "newton divergence" `Quick test_failure_newton_divergence;
          Alcotest.test_case "dependent ports" `Quick test_failure_all_ports_dependent;
          Alcotest.test_case "empty netlist" `Quick test_failure_empty_netlist_rejected;
        ] );
      ("fuzz", qsuite);
    ]
