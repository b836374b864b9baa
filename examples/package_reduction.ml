(* The paper's second example (Section 7.2, Figures 3-4): a multi-pin
   package modelled as an RLC network, characterised as a 16-port and
   reduced with SyMPVL at several orders. The printed transfer is the
   voltage ratio |Z(int,ext)/Z(ext,ext)| between the external and
   internal terminals of pin 1 (Fig. 3) and between pin-1 external and
   pin-2 internal (Fig. 4, the coupling path).

   Run with:  dune exec examples/package_reduction.exe -- [pins] [sections] *)

let () =
  let pins = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 16 in
  let sections = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4 in
  let nl = Circuit.Generators.package_model ~pins ~signal_pins:8 ~sections () in
  let mna = Circuit.Mna.assemble nl in
  Printf.printf "Package model: %s\n"
    (Format.asprintf "%a" Circuit.Netlist.pp_stats (Circuit.Netlist.stats nl));
  Printf.printf "general RLC pencil: %d unknowns, p = %d ports\n\n" mna.Circuit.Mna.n
    (Array.length mna.Circuit.Mna.port_names);

  let band = (1e7, 2e10) in
  let orders = [ 48; 64; 80 ] in
  let models =
    List.map
      (fun order ->
        let opts =
          { (Sympvl.Reduce.default ~order) with Sympvl.Reduce.band = Some band }
        in
        (order, Sympvl.Reduce.mna ~opts ~order mna))
      orders
  in
  (* MOD001 is an info finding exactly when every pole is in the
     closed left half-plane *)
  let stable model =
    Sympvl.Certify.structural (Sympvl.Rom.Sympvl_model model) mna
    |> List.for_all (fun d -> Circuit.Diagnostic.(d.code <> "MOD001" || d.severity = Info))
  in
  List.iter
    (fun (order, model) ->
      Printf.printf
        "order %d: definite=%b deflations=%d look-ahead=%d stable=%b\n" order
        model.Sympvl.Model.definite model.Sympvl.Model.deflations
        model.Sympvl.Model.look_ahead_steps (stable model))
    models;

  (* pin-1 external is port 0, pin-1 internal port 1, pin-2 internal
     port 3 (ports alternate ext/int per signal pin) *)
  let transfer z num den =
    Linalg.Cx.abs Linalg.Cx.(Linalg.Cmat.get z num 0 /: Linalg.Cmat.get z den 0)
  in
  List.iter
    (fun (num, what) ->
      Printf.printf "\n%s\n" what;
      Printf.printf "      f [Hz]      exact      %s\n"
        (String.concat "      "
           (List.map (fun (o, _) -> Printf.sprintf "n=%d" o) models));
      Array.iter
        (fun f ->
          let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
          let ze = Simulate.Ac.z_at mna s in
          Printf.printf "  %10.3e   %8.5f" f (transfer ze num 0);
          List.iter
            (fun (_, model) ->
              let zm = Sympvl.Realisation.eval model.Sympvl.Model.real s in
              Printf.printf "   %8.5f" (transfer zm num 0))
            models;
          print_newline ())
        (Simulate.Ac.log_freqs ~points:10 1e8 2e10))
    [ (1, "Fig. 3: pin-1 ext -> pin-1 int"); (3, "Fig. 4: pin-1 ext -> pin-2 int") ]
