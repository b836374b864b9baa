(* Algorithm comparison on one workload: SyMPVL vs its relatives.

   The paper positions SyMPVL against (a) AWE-style explicit moment
   matching [13,14], which is numerically limited to low orders,
   (b) the general two-sided MPVL [6], which computes the same
   matrix-Padé approximant at roughly twice the work, and (c) a
   block-Arnoldi congruence projection in the spirit of [16].

   Run with:  dune exec examples/compare_methods.exe *)

let () =
  let nl =
    Circuit.Generators.coupled_rc_bus ~terminate:150.0 ~wires:4 ~sections:25 ()
  in
  let mna = Circuit.Mna.assemble_rc nl in
  Printf.printf "workload: %s (p = 4)\n\n"
    (Format.asprintf "%a" Circuit.Netlist.pp_stats (Circuit.Netlist.stats nl));
  let freqs = Simulate.Ac.log_freqs ~points:25 1e6 5e9 in
  let sw = Simulate.Ac.sweep mna freqs in
  let err_of eval = Simulate.Ac.max_rel_error sw (Simulate.Ac.model_sweep eval freqs) in
  print_endline
    "order | SyMPVL       MPVL         Arnoldi      AWE (port 0, scalar)";
  List.iter
    (fun order ->
      let sympvl = Sympvl.Reduce.mna ~order mna in
      let mpvl = Baselines.Mpvl.reduce ~order mna in
      let arnoldi = Sympvl.Arnoldi.reduce ~order mna in
      let e1 = err_of (Sympvl.Realisation.eval sympvl.Sympvl.Model.real) in
      let e2 = err_of (Sympvl.Realisation.eval mpvl.Baselines.Mpvl.real) in
      let e3 = err_of (Sympvl.Realisation.eval arnoldi) in
      (* AWE is scalar: compare its entry (0,0) only *)
      let e4 =
        match Baselines.Awe.build ~order:(order / 4) ~port:0 mna with
        | awe ->
          let worst = ref 0.0 in
          Array.iteri
            (fun k f ->
              let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
              let ze = Linalg.Cmat.get sw.Simulate.Ac.z.(k) 0 0 in
              let za = Baselines.Awe.eval awe s in
              worst :=
                Float.max !worst (Linalg.Cx.abs Linalg.Cx.(ze -: za) /. Linalg.Cx.abs ze))
            freqs;
          Printf.sprintf "%.1e (q=%d)" !worst (order / 4)
        | exception Baselines.Awe.Breakdown msg -> "breakdown: " ^ msg
      in
      Printf.printf "%5d | %.3e    %.3e    %.3e    %s\n" order e1 e2 e3 e4)
    [ 8; 16; 24; 32 ];
  print_endline
    "\nNotes: SyMPVL and MPVL compute the same matrix-Padé approximant on\n\
     symmetric input (SyMPVL at about half the cost); the congruence\n\
     projection coincides too in the symmetric definite case. AWE's\n\
     explicit moments stall around q = 8-10 regardless of the budget —\n\
     the instability that motivated the Lanczos-based family."
