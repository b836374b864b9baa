(* Tests for the circuit substrate: netlist, parser, MNA assembly,
   generators. Exact transfer-function values are checked against
   hand-computed small circuits. *)

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* evaluate Z(s) = Bᵀ(G + sC)⁻¹B densely (reference path for tests) *)
let z_of_mna (m : Circuit.Mna.t) s =
  let gd = Sparse.Csr.to_dense m.Circuit.Mna.g in
  let cd = Sparse.Csr.to_dense m.Circuit.Mna.c in
  let k = Linalg.Cmat.lincomb Linalg.Cx.one gd s cd in
  let b = Linalg.Cmat.of_real m.Circuit.Mna.b in
  let x = Linalg.Cmat.solve k b in
  Linalg.Cmat.mul (Linalg.Cmat.transpose b) x

(* ------------------------------------------------------------------ *)
(* Netlist                                                            *)

let test_netlist_nodes () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  let b = Circuit.Netlist.node nl "b" in
  let a' = Circuit.Netlist.node nl "a" in
  Alcotest.(check int) "interned" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "ground" 0 (Circuit.Netlist.node nl "0");
  Alcotest.(check int) "gnd alias" 0 (Circuit.Netlist.node nl "gnd");
  Alcotest.(check int) "num_nodes" 2 (Circuit.Netlist.num_nodes nl);
  Alcotest.(check string) "name roundtrip" "a" (Circuit.Netlist.node_name nl a);
  (* the name table is cached after a lookup; a node added later must
     still resolve, and earlier ones keep their names *)
  let c = Circuit.Netlist.node nl "c" in
  Alcotest.(check string) "name after growth" "c" (Circuit.Netlist.node_name nl c);
  Alcotest.(check string) "earlier name kept" "b" (Circuit.Netlist.node_name nl b);
  let d = Circuit.Netlist.fresh_node nl "x" in
  Alcotest.(check bool) "fresh node named" true
    (String.length (Circuit.Netlist.node_name nl d) > 0
    && Circuit.Netlist.node_name nl d <> Printf.sprintf "<node %d>" d)

let test_netlist_validation () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  Alcotest.(check bool) "negative R rejected" true
    (try
       Circuit.Netlist.add_resistor nl a 0 (-1.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "k >= 1 rejected" true
    (try
       Circuit.Netlist.add_inductor nl ~name:"L1" a 0 1e-9;
       Circuit.Netlist.add_inductor nl ~name:"L2" a 0 1e-9;
       Circuit.Netlist.add_mutual nl "L1" "L2" 1.5;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown inductor rejected" true
    (try
       Circuit.Netlist.add_mutual nl "L1" "Lmissing" 0.5;
       false
     with Invalid_argument _ -> true)

let test_netlist_stats_classify () =
  let nl = Circuit.Generators.rc_line ~sections:5 () in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "resistors" 5 s.Circuit.Netlist.resistors;
  Alcotest.(check int) "capacitors" 5 s.Circuit.Netlist.capacitors;
  Alcotest.(check int) "nodes" 6 s.Circuit.Netlist.nodes;
  Alcotest.(check bool) "classify rc" true (Circuit.Netlist.classify nl = `Rc);
  let nl2 = Circuit.Generators.rlc_line ~sections:3 () in
  Alcotest.(check bool) "classify rlc" true (Circuit.Netlist.classify nl2 = `Rlc);
  let nl3, _ = Circuit.Generators.peec_mesh ~segments:12 () in
  Alcotest.(check bool) "classify lc" true (Circuit.Netlist.classify nl3 = `Lc);
  let nl4 = Circuit.Generators.rl_ladder ~sections:3 () in
  Alcotest.(check bool) "classify rl" true (Circuit.Netlist.classify nl4 = `Rl)

(* ------------------------------------------------------------------ *)
(* Waveform                                                           *)

let test_waveform_pwl () =
  let w = Circuit.Waveform.Pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0) ] in
  checkf "before" ~tol:1e-15 0.0 (Circuit.Waveform.eval w (-1.0));
  checkf "mid ramp" ~tol:1e-15 1.0 (Circuit.Waveform.eval w 0.5);
  checkf "plateau" ~tol:1e-15 2.0 (Circuit.Waveform.eval w 2.0);
  checkf "after" ~tol:1e-15 2.0 (Circuit.Waveform.eval w 10.0)

let test_waveform_pulse () =
  let w =
    Circuit.Waveform.Pulse
      { low = 0.0; high = 1.0; delay = 1.0; rise = 1.0; fall = 1.0; width = 2.0; period = 0.0 }
  in
  checkf "before delay" ~tol:1e-15 0.0 (Circuit.Waveform.eval w 0.5);
  checkf "mid rise" ~tol:1e-15 0.5 (Circuit.Waveform.eval w 1.5);
  checkf "high" ~tol:1e-15 1.0 (Circuit.Waveform.eval w 3.0);
  checkf "mid fall" ~tol:1e-15 0.5 (Circuit.Waveform.eval w 4.5);
  checkf "low after" ~tol:1e-15 0.0 (Circuit.Waveform.eval w 6.0)

let test_waveform_sine () =
  let w = Circuit.Waveform.Sine { offset = 1.0; amplitude = 2.0; freq = 1.0; delay = 0.0 } in
  checkf "t=0" ~tol:1e-12 1.0 (Circuit.Waveform.eval w 0.0);
  checkf "quarter" ~tol:1e-12 3.0 (Circuit.Waveform.eval w 0.25)

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)

let test_parser_values () =
  checkf "plain" ~tol:0.0 42.0 (Circuit.Parser.value "42");
  checkf "k" ~tol:1e-9 1500.0 (Circuit.Parser.value "1.5k");
  checkf "meg" ~tol:1.0 2.0e6 (Circuit.Parser.value "2MEG");
  checkf "p" ~tol:1e-25 3.3e-12 (Circuit.Parser.value "3.3p");
  checkf "n" ~tol:1e-20 1e-9 (Circuit.Parser.value "1n");
  checkf "u" ~tol:1e-15 4.7e-6 (Circuit.Parser.value "4.7u");
  checkf "f" ~tol:1e-25 5e-15 (Circuit.Parser.value "5f");
  checkf "g" ~tol:1.0 2e9 (Circuit.Parser.value "2g");
  checkf "t suffix" ~tol:1e3 1.5e12 (Circuit.Parser.value "1.5t");
  checkf "m" ~tol:1e-9 2.2e-3 (Circuit.Parser.value "2.2m");
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Circuit.Parser.value "1.5x");
       false
     with Failure _ -> true)

let test_parser_roundtrip () =
  let text =
    "* small RC with a source\n\
     R1 in mid 1k\n\
     C1 mid 0 2p\n\
     R2 mid out 500\n\
     C2 out 0 1p\n\
     I1 0 in PWL(0 0 1n 1m)\n\
     .port pin in\n\
     .port pout out\n\
     .end\n"
  in
  let nl = Circuit.Parser.parse_string text in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "R count" 2 s.Circuit.Netlist.resistors;
  Alcotest.(check int) "C count" 2 s.Circuit.Netlist.capacitors;
  Alcotest.(check int) "I count" 1 s.Circuit.Netlist.sources;
  Alcotest.(check int) "ports" 2 (Circuit.Netlist.port_count nl);
  (* print and reparse: same stats *)
  let nl2 = Circuit.Parser.parse_string (Circuit.Parser.to_string nl) in
  Alcotest.(check bool) "roundtrip stats" true
    (Circuit.Netlist.stats nl2 = s && Circuit.Netlist.port_count nl2 = 2)

let test_parser_mutual_and_errors () =
  let text = "L1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 0.8\n.port p a\n" in
  let nl = Circuit.Parser.parse_string text in
  Alcotest.(check int) "mutuals" 1 (Circuit.Netlist.stats nl).Circuit.Netlist.mutuals;
  Alcotest.(check bool) "bad card raises with line number" true
    (try
       ignore (Circuit.Parser.parse_string "R1 a 0\n");
       false
     with Circuit.Parser.Parse_error (1, _) -> true)

(* ------------------------------------------------------------------ *)
(* MNA: hand-checked small circuits                                   *)

(* One resistor R = 2 Ω from port node to ground: Z = 2. *)
let test_mna_single_resistor () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  Circuit.Netlist.add_resistor nl a 0 2.0;
  Circuit.Netlist.add_port nl "p" a;
  let m = Circuit.Mna.assemble_rc nl in
  let z = z_of_mna m (Linalg.Cx.re 0.0) in
  checkf "Z = R" ~tol:1e-12 2.0 (Linalg.Cmat.get z 0 0).Complex.re

(* RC low-pass driven at the input: Z(s) = R/(1 + sRC) + ...; more
   precisely a series R into C to ground with port at the top:
   Z(s) = R + 1/(sC) seen from... we use the parallel RC:
   Z(s) = R/(1+sRC). *)
let test_mna_parallel_rc () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  Circuit.Netlist.add_resistor nl a 0 1000.0;
  Circuit.Netlist.add_capacitor nl a 0 1e-9;
  Circuit.Netlist.add_port nl "p" a;
  let m = Circuit.Mna.assemble_rc nl in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e6) in
  let z = Linalg.Cmat.get (z_of_mna m s) 0 0 in
  let expected = Linalg.Cx.(re 1000.0 /: (re 1.0 +: smul (1000.0 *. 1e-9) s)) in
  checkf "re" ~tol:1e-6 expected.Complex.re z.Complex.re;
  checkf "im" ~tol:1e-6 expected.Complex.im z.Complex.im

(* L in series with R to ground through general RLC assembly:
   Z(s) = R + sL. *)
let test_mna_rl_series_general () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  let b = Circuit.Netlist.node nl "b" in
  Circuit.Netlist.add_inductor nl a b 1e-6;
  Circuit.Netlist.add_resistor nl b 0 50.0;
  Circuit.Netlist.add_port nl "p" a;
  let m = Circuit.Mna.assemble nl in
  Alcotest.(check int) "pencil dim = nodes + inductors" 3 m.Circuit.Mna.n;
  let w = 2.0 *. Float.pi *. 1e7 in
  let s = Linalg.Cx.im w in
  let z = Linalg.Cmat.get (z_of_mna m s) 0 0 in
  checkf "Re Z = R" ~tol:1e-6 50.0 z.Complex.re;
  checkf "Im Z = ωL" ~tol:1e-6 (w *. 1e-6) z.Complex.im

(* Symmetry and PSD structure of the assembled matrices. *)
(* the symmetric Lanczos recurrence needs G = Gᵀ and C = Cᵀ exactly:
   Mna stamps both symmetrically, on every shipped example, on K cards
   (peec_partial) and on the package workload *)
let test_mna_symmetry () =
  let nl = Circuit.Generators.rlc_line ~sections:6 () in
  let m = Circuit.Mna.assemble nl in
  Alcotest.(check bool) "G symmetric" true (Sparse.Csr.is_symmetric m.Circuit.Mna.g);
  Alcotest.(check bool) "C symmetric" true (Sparse.Csr.is_symmetric m.Circuit.Mna.c);
  Alcotest.(check bool) "not flagged spd" false m.Circuit.Mna.spd;
  let dir = List.find Sys.file_exists [ "../examples/netlists"; "examples/netlists" ] in
  let examples =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".cir")
    |> List.map (fun f -> (f, Circuit.Parser.parse_file (Filename.concat dir f)))
  in
  Alcotest.(check bool) "examples found" true (examples <> []);
  List.iter
    (fun (what, nl) ->
      let m = Circuit.Mna.auto nl in
      Alcotest.(check bool) (what ^ ": G exactly symmetric") true
        (Sparse.Csr.is_symmetric ~tol:0.0 m.Circuit.Mna.g);
      Alcotest.(check bool) (what ^ ": C exactly symmetric") true
        (Sparse.Csr.is_symmetric ~tol:0.0 m.Circuit.Mna.c))
    (examples
    @ [
        ("peec_partial", Circuit.Generators.peec_partial ~conductors:3 ~segments:8 ());
        ("package_model", Circuit.Generators.package_model ());
      ])

let test_mna_rc_psd () =
  let nl = Circuit.Generators.coupled_rc_bus ~wires:3 ~sections:4 () in
  let m = Circuit.Mna.assemble_rc nl in
  Alcotest.(check bool) "flagged spd" true m.Circuit.Mna.spd;
  let ge = Linalg.Eig_sym.min_eigenvalue (Sparse.Csr.to_dense m.Circuit.Mna.g) in
  let ce = Linalg.Eig_sym.min_eigenvalue (Sparse.Csr.to_dense m.Circuit.Mna.c) in
  Alcotest.(check bool) "G PSD" true (ge > -1e-9);
  Alcotest.(check bool) "C PSD" true (ce > -1e-9)

(* Mutual inductance: two coupled inductors in the ℒ matrix. *)
let test_mna_inductance_matrix () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  let b = Circuit.Netlist.node nl "b" in
  Circuit.Netlist.add_inductor nl ~name:"L1" a 0 4e-9;
  Circuit.Netlist.add_inductor nl ~name:"L2" b 0 1e-9;
  Circuit.Netlist.add_mutual nl "L1" "L2" 0.5;
  Circuit.Netlist.add_port nl "p" a;
  let lm = Circuit.Mna.inductance_matrix nl in
  checkf "L11" ~tol:1e-21 4e-9 (Linalg.Mat.get lm 0 0);
  checkf "M = k √(L1 L2)" ~tol:1e-21 1e-9 (Linalg.Mat.get lm 0 1);
  Alcotest.(check bool) "ℒ SPD" true (Linalg.Eig_sym.min_eigenvalue lm > 0.0)

(* LC form vs general RLC form must produce the same Z(jω) once the
   gain/variable conventions are applied. *)
let test_mna_lc_matches_general () =
  let nl, _ = Circuit.Generators.peec_mesh ~segments:10 () in
  let lc = Circuit.Mna.assemble_lc nl in
  let gen = Circuit.Mna.assemble nl in
  Alcotest.(check bool) "lc uses s² variable" true
    (lc.Circuit.Mna.variable = Circuit.Mna.S_squared);
  let w = 2.0 *. Float.pi *. 3e8 in
  let s = Linalg.Cx.im w in
  (* general: Z(s) = Bᵀ(G+sC)⁻¹B *)
  let z_gen = Linalg.Cmat.get (z_of_mna gen s) 0 0 in
  (* lc form: Z(s) = s·Bᵀ(G + s²C)⁻¹B *)
  let s2 = Linalg.Cx.(s *: s) in
  let z_lc = Linalg.Cx.(s *: Linalg.Cmat.get (z_of_mna lc s2) 0 0) in
  checkf "re matches" ~tol:(1e-6 *. Linalg.Cx.abs z_gen) z_gen.Complex.re z_lc.Complex.re;
  checkf "im matches" ~tol:(1e-6 *. Linalg.Cx.abs z_gen) z_gen.Complex.im z_lc.Complex.im

(* RL form vs general RLC form. *)
let test_mna_rl_matches_general () =
  let nl = Circuit.Generators.rl_ladder ~sections:4 () in
  let rl = Circuit.Mna.assemble_rl nl in
  let gen = Circuit.Mna.assemble nl in
  let w = 1e8 in
  let s = Linalg.Cx.im w in
  let z_gen = Linalg.Cmat.get (z_of_mna gen s) 0 0 in
  let z_rl = Linalg.Cx.(s *: Linalg.Cmat.get (z_of_mna rl s) 0 0) in
  checkf "re matches" ~tol:(1e-8 *. Linalg.Cx.abs z_gen) z_gen.Complex.re z_rl.Complex.re;
  checkf "im matches" ~tol:(1e-8 *. Linalg.Cx.abs z_gen) z_gen.Complex.im z_rl.Complex.im

let test_mna_observe_errors () =
  let nl = Circuit.Generators.rc_line ~sections:3 () in
  let m = Circuit.Mna.assemble_rc nl in
  Alcotest.(check bool) "no inductors to observe" true
    (try
       ignore (Circuit.Mna.observe_inductor_current nl m "Lx");
       false
     with Not_found | Circuit.Diagnostic.User_error _ -> true);
  let nl2 = Circuit.Generators.rl_ladder ~sections:3 () in
  let m2 = Circuit.Mna.assemble_rl nl2 in
  let lname, _, _, _ = List.hd (Circuit.Netlist.inductors nl2) in
  Alcotest.(check bool) "RL form rejects observation" true
    (try
       ignore (Circuit.Mna.observe_inductor_current nl2 m2 lname);
       false
     with Circuit.Diagnostic.User_error _ -> true)

let test_mna_rejects () =
  let nl = Circuit.Generators.rlc_line ~sections:2 () in
  Alcotest.(check bool) "rc form rejects inductors" true
    (try
       ignore (Circuit.Mna.assemble_rc nl);
       false
     with Circuit.Diagnostic.User_error _ -> true);
  let nl2 = Circuit.Generators.rc_line ~sections:2 () in
  Alcotest.(check bool) "lc form rejects resistors" true
    (try
       ignore (Circuit.Mna.assemble_lc nl2);
       false
     with Circuit.Diagnostic.User_error _ -> true);
  let nl3 = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl3 "a" in
  Circuit.Netlist.add_resistor nl3 a 0 1.0;
  Alcotest.(check bool) "no ports rejected" true
    (try
       ignore (Circuit.Mna.assemble_rc nl3);
       false
     with Circuit.Diagnostic.User_error _ -> true)

(* observe_inductor_current in the general form: drive port 1 of an
   RL series circuit; inductor current equals port current. *)
let test_mna_observe_inductor () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.node nl "a" in
  let b = Circuit.Netlist.node nl "b" in
  Circuit.Netlist.add_inductor nl ~name:"Lx" a b 1e-6;
  Circuit.Netlist.add_resistor nl b 0 10.0;
  Circuit.Netlist.add_port nl "p" a;
  let m = Circuit.Mna.assemble nl in
  let w = Circuit.Mna.observe_inductor_current nl m "Lx" in
  let m2 = Circuit.Mna.append_output_column m w "iL" in
  Alcotest.(check int) "B widened" 2 m2.Circuit.Mna.b.Linalg.Mat.cols;
  let s = Linalg.Cx.im 1e6 in
  let z = z_of_mna m2 s in
  (* Z21 = inductor current response to port current = 1 (series) *)
  let z21 = Linalg.Cmat.get z 1 0 in
  checkf "series current transfer" ~tol:1e-9 1.0 z21.Complex.re

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)

let test_gen_sizes () =
  let nl = Circuit.Generators.coupled_rc_bus ~wires:4 ~sections:10 () in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "nodes" (4 * 11) s.Circuit.Netlist.nodes;
  Alcotest.(check int) "resistors" 40 s.Circuit.Netlist.resistors;
  Alcotest.(check int) "ports" 4 (Circuit.Netlist.port_count nl);
  Alcotest.(check bool) "many coupling caps" true (s.Circuit.Netlist.capacitors > 100)

let test_gen_package () =
  let nl = Circuit.Generators.package_model ~pins:8 ~signal_pins:2 ~sections:3 () in
  let s = Circuit.Netlist.stats nl in
  Alcotest.(check int) "ports" 4 (Circuit.Netlist.port_count nl);
  Alcotest.(check int) "inductors" 24 s.Circuit.Netlist.inductors_;
  Alcotest.(check int) "mutuals" 21 s.Circuit.Netlist.mutuals;
  (* assembles in the general form without error *)
  let m = Circuit.Mna.assemble nl in
  Alcotest.(check bool) "G symmetric" true (Sparse.Csr.is_symmetric m.Circuit.Mna.g)

let test_gen_peec_spd_l () =
  let nl, out_l = Circuit.Generators.peec_mesh ~segments:24 () in
  let lm = Circuit.Mna.inductance_matrix nl in
  Alcotest.(check bool) "dense ℒ SPD" true (Linalg.Eig_sym.min_eigenvalue lm > 0.0);
  let m = Circuit.Mna.assemble_lc nl in
  (* G singular: min |eigenvalue| ≈ 0 *)
  let ge = Linalg.Eig_sym.values (Sparse.Csr.to_dense m.Circuit.Mna.g) in
  Alcotest.(check bool) "nodal G singular" true (Float.abs ge.(0) < 1e-3);
  (* output observation column exists *)
  let w = Circuit.Mna.observe_inductor_current nl m out_l in
  Alcotest.(check bool) "observation nonzero" true (Linalg.Vec.norm2 w > 0.0)

let test_gen_random_rc_deterministic () =
  let a = Circuit.Generators.random_rc ~nodes:20 ~extra_edges:15 ~seed:5 () in
  let b = Circuit.Generators.random_rc ~nodes:20 ~extra_edges:15 ~seed:5 () in
  Alcotest.(check bool) "same netlist text" true
    (String.equal (Circuit.Parser.to_string a) (Circuit.Parser.to_string b))

let test_gen_rc_tree () =
  let nl = Circuit.Generators.rc_tree ~depth:4 () in
  let s = Circuit.Netlist.stats nl in
  (* binary tree: 2^(d+1) - 2 segments *)
  Alcotest.(check int) "segments" 30 s.Circuit.Netlist.resistors;
  Alcotest.(check int) "ports" 2 (Circuit.Netlist.port_count nl)

let test_waveform_periodic_pulse () =
  let w =
    Circuit.Waveform.Pulse
      { low = 0.0; high = 1.0; delay = 0.0; rise = 0.1; fall = 0.1; width = 0.3; period = 1.0 }
  in
  checkf "first period high" ~tol:1e-12 1.0 (Circuit.Waveform.eval w 0.2);
  checkf "second period high" ~tol:1e-12 1.0 (Circuit.Waveform.eval w 1.2);
  checkf "second period low" ~tol:1e-12 0.0 (Circuit.Waveform.eval w 1.8);
  checkf "dc_value" ~tol:1e-12 0.0 (Circuit.Waveform.dc_value w)

let test_netlist_fresh_nodes () =
  let nl = Circuit.Netlist.create () in
  let a = Circuit.Netlist.fresh_node nl "tmp" in
  let b = Circuit.Netlist.fresh_node nl "tmp" in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "named back" true
    (String.length (Circuit.Netlist.node_name nl a) > 0)

let test_parser_subckt_in_file_grammar () =
  (* .subckt cards interleaved with comments and blank lines *)
  let text =
    "* header\n\n.subckt sec a b\n* inner comment\nR1 a b 10\n.ends\n\nX1 p 0 sec\n.port pp p\n.end\n"
  in
  let nl = Circuit.Parser.parse_string text in
  Alcotest.(check int) "one resistor" 1
    (Circuit.Netlist.stats nl).Circuit.Netlist.resistors

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)

let prop_random_rc_assembles =
  QCheck.Test.make ~count:30 ~name:"mna: random RC assembles symmetric PSD"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let nl =
        Circuit.Generators.random_rc ~nodes:(5 + abs seed mod 20) ~extra_edges:10
          ~seed ()
      in
      let m = Circuit.Mna.assemble_rc nl in
      Sparse.Csr.is_symmetric m.Circuit.Mna.g
      && Sparse.Csr.is_symmetric m.Circuit.Mna.c
      && Linalg.Eig_sym.min_eigenvalue (Sparse.Csr.to_dense m.Circuit.Mna.g) > -1e-9)

let prop_z_symmetric =
  QCheck.Test.make ~count:20 ~name:"mna: Z(s) is a symmetric matrix"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let nl =
        Circuit.Generators.random_rc ~ports:3 ~nodes:12 ~extra_edges:8 ~seed ()
      in
      let m = Circuit.Mna.assemble_rc nl in
      let z = z_of_mna m (Linalg.Cx.make 1e5 1e6) in
      let zt = Linalg.Cmat.transpose z in
      Linalg.Cmat.dist_max z zt < 1e-9 *. Float.max 1.0 (Linalg.Cmat.max_abs z))

let () =
  let qsuite =
    List.map (fun t -> Qtest.to_alcotest t) [ prop_random_rc_assembles; prop_z_symmetric ]
  in
  Alcotest.run "circuit"
    [
      ( "netlist",
        [
          Alcotest.test_case "node interning" `Quick test_netlist_nodes;
          Alcotest.test_case "validation" `Quick test_netlist_validation;
          Alcotest.test_case "stats and classify" `Quick test_netlist_stats_classify;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "pwl" `Quick test_waveform_pwl;
          Alcotest.test_case "pulse" `Quick test_waveform_pulse;
          Alcotest.test_case "sine" `Quick test_waveform_sine;
        ] );
      ( "parser",
        [
          Alcotest.test_case "engineering values" `Quick test_parser_values;
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "mutual and errors" `Quick test_parser_mutual_and_errors;
        ] );
      ( "mna",
        [
          Alcotest.test_case "single resistor" `Quick test_mna_single_resistor;
          Alcotest.test_case "parallel RC" `Quick test_mna_parallel_rc;
          Alcotest.test_case "RL series general" `Quick test_mna_rl_series_general;
          Alcotest.test_case "symmetry" `Quick test_mna_symmetry;
          Alcotest.test_case "rc PSD" `Quick test_mna_rc_psd;
          Alcotest.test_case "inductance matrix" `Quick test_mna_inductance_matrix;
          Alcotest.test_case "lc form matches general" `Quick test_mna_lc_matches_general;
          Alcotest.test_case "rl form matches general" `Quick test_mna_rl_matches_general;
          Alcotest.test_case "rejections" `Quick test_mna_rejects;
          Alcotest.test_case "observe errors" `Quick test_mna_observe_errors;
          Alcotest.test_case "observe inductor current" `Quick test_mna_observe_inductor;
        ] );
      ( "misc",
        [
          Alcotest.test_case "periodic pulse" `Quick test_waveform_periodic_pulse;
          Alcotest.test_case "fresh nodes" `Quick test_netlist_fresh_nodes;
          Alcotest.test_case "subckt grammar" `Quick test_parser_subckt_in_file_grammar;
        ] );
      ( "generators",
        [
          Alcotest.test_case "coupled bus sizes" `Quick test_gen_sizes;
          Alcotest.test_case "package model" `Quick test_gen_package;
          Alcotest.test_case "peec mesh structure" `Quick test_gen_peec_spd_l;
          Alcotest.test_case "random rc deterministic" `Quick test_gen_random_rc_deterministic;
          Alcotest.test_case "rc tree" `Quick test_gen_rc_tree;
        ] );
      ("properties", qsuite);
    ]
