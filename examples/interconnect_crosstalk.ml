(* The paper's third example (Section 7.3, Figure 5): an extracted
   crosstalk RC network is reduced with SyMPVL, synthesized back into
   a small RC circuit, and simulated in the time domain against the
   full netlist. The reduced circuit is orders of magnitude cheaper at
   indistinguishable accuracy.

   Run with:  dune exec examples/interconnect_crosstalk.exe -- [wires] [sections] *)

let () =
  let wires = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 6 in
  let sections = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 30 in
  let make_bus () =
    Circuit.Generators.coupled_rc_bus ~terminate:200.0 ~coupling_span:2 ~wires ~sections ()
  in
  let nl = make_bus () in
  let stats = Circuit.Netlist.stats nl in
  Printf.printf "Interconnect: %s\n"
    (Format.asprintf "%a" Circuit.Netlist.pp_stats stats);

  (* reduce the p-port RC network *)
  let order = 4 * wires in
  let mna = Circuit.Mna.assemble_rc nl in
  let model = Sympvl.Reduce.mna ~order mna in
  Printf.printf "SyMPVL: order %d for %d ports (definite=%b, certified passive=%b)\n"
    model.Sympvl.Model.order wires model.Sympvl.Model.definite
    (match Sympvl.Certify.structural_certificate model.Sympvl.Model.real with
    | Sympvl.Certify.Certified _ -> true
    | _ -> false);

  (* synthesize an equivalent small RC circuit *)
  let names = Array.init wires (fun w -> Printf.sprintf "port%d" w) in
  let syn, sst = Synth.Multiport.synthesize ~port_names:names model in
  Printf.printf
    "synthesis: %d nodes, %d R, %d C (%d negative-valued) vs full %d nodes, %d R, %d C\n\n"
    sst.Synth.Multiport.nodes sst.Synth.Multiport.resistors sst.Synth.Multiport.capacitors
    sst.Synth.Multiport.negative_elements stats.Circuit.Netlist.nodes
    stats.Circuit.Netlist.resistors stats.Circuit.Netlist.capacitors;

  (* time-domain comparison: aggressor ramp on wire 0, victim = wire 1 *)
  let drive = Circuit.Waveform.ramp ~rise:3e-10 2e-3 in
  let opts = Simulate.Transient.default ~dt:1e-11 ~t_stop:6e-9 in
  let full = make_bus () in
  let agg = Circuit.Netlist.node full "w0s0" in
  let vic = Circuit.Netlist.node full "w1s0" in
  Circuit.Netlist.add_current_source full 0 agg drive;
  let t0 = Sys.time () in
  let r_full = Simulate.Transient.run ~opts ~observe:[ agg; vic ] full in
  let t_full = Sys.time () -. t0 in
  let agg_s = Circuit.Netlist.node syn "port0" in
  let vic_s = Circuit.Netlist.node syn "port1" in
  Circuit.Netlist.add_current_source syn 0 agg_s drive;
  let t0 = Sys.time () in
  let r_syn = Simulate.Transient.run ~opts ~observe:[ agg_s; vic_s ] syn in
  let t_syn = Sys.time () -. t0 in

  print_endline "     t [s]      v_aggressor (full / reduced)   v_victim (full / reduced)";
  let n = r_full.Simulate.Transient.steps in
  let get r idx k = snd (List.nth r.Simulate.Transient.voltages idx) |> fun a -> a.(k) in
  List.iter
    (fun frac ->
      let k = n * frac / 100 in
      Printf.printf "  %9.3e     %10.6f / %10.6f      %10.6f / %10.6f\n"
        r_full.Simulate.Transient.times.(k) (get r_full 0 k) (get r_syn 0 k)
        (get r_full 1 k) (get r_syn 1 k))
    [ 5; 10; 20; 30; 50; 70; 100 ];
  Printf.printf "\nmax waveform deviation: %.3e V\n"
    (Simulate.Transient.max_deviation r_full r_syn);
  Printf.printf "CPU time: full %.3f s (%d unknowns) vs reduced %.3f s (%d nodes) -> speedup %.1fx\n"
    t_full stats.Circuit.Netlist.nodes t_syn sst.Synth.Multiport.nodes
    (t_full /. Float.max t_syn 1e-9)
