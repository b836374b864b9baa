(* The paper's first example (Section 7.1, Figures 1-2): an LC circuit
   from PEEC-style modeling, treated as a generalised two-port with
   Z(s) = Bᵀ(G + s²C)⁻¹B, B = [a l].  G is singular (no DC path to
   ground), so a frequency shift s₀ is used exactly as in eq. (26).

   Run with:  dune exec examples/peec_twoport.exe *)

let () =
  let segments = 60 in
  let nl, out_inductor = Circuit.Generators.peec_mesh ~segments () in
  let mna = Circuit.Mna.assemble_lc nl in
  (* generalised second port: the current through a chosen inductor,
     observed through l = Aˡᵀℒ⁻¹b (paper Section 7.1) *)
  let w = Circuit.Mna.observe_inductor_current nl mna out_inductor in
  let mna = Circuit.Mna.append_output_column mna w "i_out" in
  Printf.printf "PEEC-style LC mesh: %s\n"
    (Format.asprintf "%a" Circuit.Netlist.pp_stats (Circuit.Netlist.stats nl));
  Printf.printf "pencil in s²: %d unknowns, 2 observation columns\n\n" mna.Circuit.Mna.n;

  let band = (1e8, 5e9) in
  let order = 30 in
  let opts = { (Sympvl.Reduce.default ~order) with Sympvl.Reduce.band = Some band } in
  let model = Sympvl.Reduce.mna ~opts ~order mna in
  Printf.printf "SyMPVL: order %d, shift s0 = %.3e (s² domain), definite = %b\n\n"
    model.Sympvl.Model.order model.Sympvl.Model.shift model.Sympvl.Model.definite;

  (* input impedance Z_in = −s·Z11 and transfer α = −Z21 (paper §7.1) *)
  print_endline "      f [Hz]        |Zin| exact     |Zin| n=30      rel.err";
  let freqs = Simulate.Ac.log_freqs ~points:13 1e8 5e9 in
  Array.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let ze = Simulate.Ac.z_at mna s in
      let zm = Sympvl.Realisation.eval model.Sympvl.Model.real s in
      let zin_e = Linalg.Cx.(s *: Linalg.Cmat.get ze 0 0) in
      let zin_m = Linalg.Cx.(s *: Linalg.Cmat.get zm 0 0) in
      let err = Linalg.Cx.abs (Complex.sub zin_e zin_m) /. Linalg.Cx.abs zin_e in
      Printf.printf "  %10.4e   %12.6g   %12.6g   %.2e\n" f (Linalg.Cx.abs zin_e)
        (Linalg.Cx.abs zin_m) err)
    freqs;

  (* moment matching in the shifted s² variable *)
  let matched = Sympvl.Moments.matched_count ~rtol:1e-5 model mna in
  Printf.printf "\nmatched matrix moments about the shift: %d (guarantee 2*floor(n/p) = %d)\n"
    matched
    (2 * (order / 2))
