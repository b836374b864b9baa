(* Quickstart: reduce a small RC interconnect with SyMPVL and compare
   the reduced model against exact AC analysis.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* a 40-section RC line with ports at both ends, terminated so that
     the conductance matrix is nonsingular (expansion about s = 0,
     provably stable and passive — paper Section 5) *)
  let nl = Circuit.Generators.rc_line ~sections:40 () in
  let far_end = Circuit.Netlist.node nl "n40" in
  Circuit.Netlist.add_resistor nl far_end 0 75.0;
  let mna = Circuit.Mna.assemble_rc nl in
  Printf.printf "Circuit: %s\n"
    (Format.asprintf "%a" Circuit.Netlist.pp_stats (Circuit.Netlist.stats nl));
  Printf.printf "MNA pencil: %d unknowns, %d ports\n\n" mna.Circuit.Mna.n
    (Array.length mna.Circuit.Mna.port_names);

  (* SyMPVL reduction to order 10 *)
  let order = 10 in
  let model = Sympvl.Reduce.mna ~order mna in
  Printf.printf "SyMPVL model: order %d, p = %d, definite = %b\n" model.Sympvl.Model.order
    model.Sympvl.Model.p model.Sympvl.Model.definite;

  (* moment matching: the matrix-Padé property guarantees 2⌊n/p⌋ *)
  let matched = Sympvl.Moments.matched_count ~rtol:1e-6 model mna in
  Printf.printf "matched moments: %d (guaranteed: %d)\n" matched (2 * (order / 2));

  (* passivity certificate (MOD002) and pole stability (MOD001) — the
     two findings `symor reduce` prints for every engine *)
  List.iter
    (fun d -> print_endline (Format.asprintf "%a" Circuit.Diagnostic.pp d))
    (Sympvl.Certify.structural (Sympvl.Rom.Sympvl_model model) mna);

  (* compare against exact AC analysis across five decades *)
  print_endline "\n      f [Hz]      |Z11| exact    |Z11| reduced   rel.err";
  Array.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let z_exact = Linalg.Cmat.get (Simulate.Ac.z_at mna s) 0 0 in
      let z_model = Linalg.Cmat.get (Sympvl.Realisation.eval model.Sympvl.Model.real s) 0 0 in
      let err =
        Linalg.Cx.abs (Complex.sub z_exact z_model) /. Linalg.Cx.abs z_exact
      in
      Printf.printf "  %10.3e   %12.6g   %12.6g   %.2e\n" f (Linalg.Cx.abs z_exact)
        (Linalg.Cx.abs z_model) err)
    [| 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 |];

  (* the poles of the reduced model (all on the negative real axis) *)
  print_endline "\nreduced-model poles (rad/s):";
  Array.iter
    (fun pole -> Printf.printf "  %+.6e %+.3ei\n" pole.Complex.re pole.Complex.im)
    (Sympvl.Realisation.poles model.Sympvl.Model.real)
