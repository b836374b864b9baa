(* Benchmark / experiment harness.

   Regenerates every table and figure of the paper's evaluation
   (Section 7) on the synthetic substitute workloads documented in
   DESIGN.md, plus the ablation tables DESIGN.md calls out. Each
   section prints the data series the corresponding figure plots.

   Run:  dune exec bench/main.exe            (all experiments)
         dune exec bench/main.exe -- fig2 tabB ...   (a subset)
         dune exec bench/main.exe -- --quick  (reduced sizes)  *)

let quick = ref false

let csv_dir = ref None

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* optional plot-ready data files: enabled with --csv [DIR] *)
let csv_out name header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (String.concat "," header);
    output_char oc '\n';
    List.iter
      (fun row ->
        output_string oc (String.concat "," (List.map (Printf.sprintf "%.9e") row));
        output_char oc '\n')
      rows;
    close_out oc;
    Printf.printf "[csv] wrote %s (%d rows)\n" path (List.length rows)

(* machine-readable experiment output (always written: downstream
   tooling diffs these against the symbolic predictions) *)
let json_out name json =
  let dir = "bench/out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".json") in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "[json] wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* small bechamel wrapper: estimated ns/run of a thunk                 *)

let measure_ns name fn =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  match Hashtbl.fold (fun _ v acc -> v :: acc) ols [] with
  | [ v ] -> (
    match Analyze.OLS.estimates v with Some [ ns ] -> ns | _ -> nan)
  | _ -> nan

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)

let peec_mna () =
  let segments = if !quick then 40 else 120 in
  let nl, out_l = Circuit.Generators.peec_mesh ~segments () in
  let mna = Circuit.Mna.assemble_lc nl in
  let w = Circuit.Mna.observe_inductor_current nl mna out_l in
  (nl, Circuit.Mna.append_output_column mna w "i_out")

let package_mna () =
  let pins = if !quick then 16 else 64 in
  let sections = if !quick then 4 else 10 in
  let nl = Circuit.Generators.package_model ~pins ~signal_pins:8 ~sections () in
  (nl, Circuit.Mna.assemble nl)

let bus_netlist () =
  let wires = if !quick then 6 else 17 in
  let sections = if !quick then 20 else 79 in
  Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires ~sections ()

let reduce_banded mna ~order ~band =
  let opts = { (Sympvl.Reduce.default ~order) with Sympvl.Reduce.band = Some band } in
  Sympvl.Reduce.mna ~opts ~order mna

(* ------------------------------------------------------------------ *)
(* Fig. 2 — PEEC LC two-port transfer function                         *)

let fig2 () =
  section "Fig. 2: PEEC circuit transfer function (LC two-port, s^2 pencil)";
  let nl, mna = peec_mna () in
  Printf.printf "workload: %s -> N = %d, p = 2 (drive + inductor-current output)\n"
    (Format.asprintf "%a" Circuit.Netlist.pp_stats (Circuit.Netlist.stats nl))
    mna.Circuit.Mna.n;
  let band = (1e8, 5e9) in
  let orders = [ 50; 56 ] in
  let t0 = Obs.now () in
  let models = List.map (fun order -> (order, reduce_banded mna ~order ~band)) orders in
  let t_reduce = Obs.now () -. t0 in
  let freqs = Simulate.Ac.log_freqs ~points:(if !quick then 40 else 120) 1e8 5e9 in
  let t0 = Obs.now () in
  let sw = Simulate.Ac.sweep mna freqs in
  let t_exact = Obs.now () -. t0 in
  (* the paper plots |Zin| = |s·Z11| and the transfer |Z21| *)
  Printf.printf "\n%12s %14s %14s %14s %14s\n" "f[Hz]" "|Zin| exact" "|Zin| n=50"
    "|Zin| n=56" "|Z21| exact";
  Array.iteri
    (fun k f ->
      if k mod (Array.length freqs / 20) = 0 then begin
        let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
        let zin z = Linalg.Cx.abs Linalg.Cx.(s *: Linalg.Cmat.get z 0 0) in
        let ze = sw.Simulate.Ac.z.(k) in
        Printf.printf "%12.4e %14.6e" f (zin ze);
        List.iter
          (fun (_, model) -> Printf.printf " %14.6e" (zin (Sympvl.Realisation.eval model.Sympvl.Model.real s)))
          models;
        Printf.printf " %14.6e\n" (Linalg.Cx.abs (Linalg.Cmat.get ze 1 0))
      end)
    freqs;
  csv_out "fig2_peec"
    ([ "freq_hz"; "zin_exact"; "z21_exact" ]
    @ List.concat_map (fun (o, _) -> [ Printf.sprintf "zin_n%d" o ]) models)
    (Array.to_list
       (Array.mapi
          (fun k f ->
            let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
            let zin z = Linalg.Cx.abs Linalg.Cx.(s *: Linalg.Cmat.get z 0 0) in
            [ f; zin sw.Simulate.Ac.z.(k);
              Linalg.Cx.abs (Linalg.Cmat.get sw.Simulate.Ac.z.(k) 1 0) ]
            @ List.map (fun (_, model) -> zin (Sympvl.Realisation.eval model.Sympvl.Model.real s)) models)
          freqs));
  (* like the paper: n = 50 gives a good match; a few more iterations
     make it essentially perfect over the band of interest; report the
     error on nested sub-bands to show where each order gives out *)
  let banded_err model f_hi =
    let worst = ref 0.0 in
    Array.iteri
      (fun k f ->
        if f <= f_hi then begin
          let zm = Sympvl.Realisation.eval model.Sympvl.Model.real (Linalg.Cx.im (2.0 *. Float.pi *. f)) in
          let ze = sw.Simulate.Ac.z.(k) in
          worst :=
            Float.max !worst
              (Linalg.Cmat.dist_max ze zm /. Float.max (Linalg.Cmat.max_abs ze) 1e-300)
        end)
      freqs;
    !worst
  in
  Printf.printf "\n%8s %14s %14s %14s\n" "order" "err <= 2 GHz" "err <= 3.5 GHz"
    "err <= 5 GHz";
  List.iter
    (fun order ->
      let model = reduce_banded mna ~order ~band in
      Printf.printf "%8d %14.3e %14.3e %14.3e\n" order (banded_err model 2e9)
        (banded_err model 3.5e9) (banded_err model 5e9))
    [ 50; 56; 64; 72 ];
  Printf.printf "reduction time %.2fs; exact sweep (%d pts) %.2fs\n" t_reduce
    (Array.length freqs) t_exact

(* ------------------------------------------------------------------ *)
(* Figs. 3 and 4 — package model, 16 ports                             *)

let package_figure ~out_port ~title =
  section title;
  let nl, mna = package_mna () in
  Printf.printf "workload: %s -> N = %d, p = %d\n"
    (Format.asprintf "%a" Circuit.Netlist.pp_stats (Circuit.Netlist.stats nl))
    mna.Circuit.Mna.n
    (Array.length mna.Circuit.Mna.port_names);
  let band = (1e8, 1e10) in
  let orders = [ 48; 64; 80 ] in
  let t0 = Obs.now () in
  let models = List.map (fun order -> (order, reduce_banded mna ~order ~band)) orders in
  Printf.printf "reductions (orders %s): %.2fs\n"
    (String.concat ", " (List.map string_of_int orders))
    (Obs.now () -. t0);
  let freqs = Simulate.Ac.log_freqs ~points:(if !quick then 30 else 90) 1e8 1e10 in
  let t0 = Obs.now () in
  let sw = Simulate.Ac.sweep mna freqs in
  Printf.printf "exact sweep (%d points): %.2fs\n" (Array.length freqs) (Obs.now () -. t0);
  (* voltage transfer |Z(out,0)/Z(0,0)| — drive pin-1 external *)
  let transfer z = Linalg.Cx.abs Linalg.Cx.(Linalg.Cmat.get z out_port 0 /: Linalg.Cmat.get z 0 0) in
  Printf.printf "\n%12s %12s" "f[Hz]" "exact";
  List.iter (fun (o, _) -> Printf.printf " %10s" (Printf.sprintf "n=%d" o)) models;
  print_newline ();
  Array.iteri
    (fun k f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let t_exact = transfer sw.Simulate.Ac.z.(k) in
      let row = k mod (max 1 (Array.length freqs / 18)) = 0 in
      if row then Printf.printf "%12.4e %12.6f" f t_exact;
      List.iter
        (fun (_, model) ->
          let t_model = transfer (Sympvl.Realisation.eval model.Sympvl.Model.real s) in
          if row then Printf.printf " %10.6f" t_model)
        models;
      if row then print_newline ())
    freqs;
  csv_out
    (if out_port = 1 then "fig3_package" else "fig4_package")
    ([ "freq_hz"; "transfer_exact" ]
    @ List.map (fun (o, _) -> Printf.sprintf "transfer_n%d" o) models)
    (Array.to_list
       (Array.mapi
          (fun k f ->
            let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
            [ f; transfer sw.Simulate.Ac.z.(k) ]
            @ List.map (fun (_, model) -> transfer (Sympvl.Realisation.eval model.Sympvl.Model.real s)) models)
          freqs));
  (* the figures' visual story: each order tracks the exact transfer
     up to some frequency and gives out above it; report the error on
     nested sub-bands (the paper's "reduction level depends on the
     desired accuracy") *)
  let banded_err model f_hi =
    let worst = ref 0.0 in
    Array.iteri
      (fun k f ->
        if f <= f_hi then begin
          let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
          let t_exact = transfer sw.Simulate.Ac.z.(k) in
          let t_model = transfer (Sympvl.Realisation.eval model.Sympvl.Model.real s) in
          worst :=
            Float.max !worst (Float.abs (t_model -. t_exact) /. Float.max t_exact 1e-12)
        end)
      freqs;
    !worst
  in
  Printf.printf "%8s %14s %14s %14s\n" "order" "err <= 1 GHz" "err <= 2.5 GHz"
    "err <= 5 GHz";
  List.iter
    (fun (o, model) ->
      Printf.printf "%8d %14.3e %14.3e %14.3e\n" o (banded_err model 1e9)
        (banded_err model 2.5e9) (banded_err model 5e9))
    models

let fig3 () =
  package_figure ~out_port:1
    ~title:"Fig. 3: package, pin-1 external -> pin-1 internal voltage transfer"

let fig4 () =
  package_figure ~out_port:3
    ~title:"Fig. 4: package, pin-1 external -> pin-2 internal (coupling)"

(* ------------------------------------------------------------------ *)
(* Fig. 5 + Tab. A — interconnect: synthesis + transient CPU time      *)

let fig5 () =
  section "Fig. 5 / Tab. A: crosstalk interconnect, synthesized reduced circuit";
  let nl = bus_netlist () in
  let stats = Circuit.Netlist.stats nl in
  let wires = Circuit.Netlist.port_count nl in
  Printf.printf "full netlist: %d nodes, %d R, %d C, %d ports\n"
    stats.Circuit.Netlist.nodes stats.Circuit.Netlist.resistors
    stats.Circuit.Netlist.capacitors wires;
  let mna = Circuit.Mna.assemble_rc nl in
  let names = Array.init wires (fun w -> Printf.sprintf "port%d" w) in
  (* the paper's reduced circuit kept 2 states per port (34 for 17
     ports); our synthetic bus is denser, so we report that size AND
     the 4-per-port model whose waveforms are indistinguishable *)
  let build order =
    let t0 = Obs.now () in
    let model = Sympvl.Reduce.mna ~order mna in
    let t_reduce = Obs.now () -. t0 in
    let t0 = Obs.now () in
    let syn, sst = Synth.Multiport.synthesize ~port_names:names model in
    let t_synth = Obs.now () -. t0 in
    Printf.printf
      "SyMPVL order %d (%.2fs) -> synthesized %d nodes, %d R, %d C (%d negative, %.2fs)\n"
      order t_reduce sst.Synth.Multiport.nodes sst.Synth.Multiport.resistors
      sst.Synth.Multiport.capacitors sst.Synth.Multiport.negative_elements t_synth;
    (syn, sst)
  in
  let _syn34, sst34 = build (2 * wires) in
  let syn, sst = build (4 * wires) in
  Printf.printf
    "Tab. A | paper: 1350 -> 34 nodal equations, 36620 C/1355 R -> 170 C/459 R\n";
  Printf.printf
    "Tab. A | ours : %d -> %d nodal equations, %d C/%d R -> %d C/%d R (2/port)\n"
    stats.Circuit.Netlist.nodes sst34.Synth.Multiport.nodes
    stats.Circuit.Netlist.capacitors stats.Circuit.Netlist.resistors
    sst34.Synth.Multiport.capacitors sst34.Synth.Multiport.resistors;
  Printf.printf
    "Tab. A | ours : %d -> %d nodal equations, %d C/%d R -> %d C/%d R (4/port)\n"
    stats.Circuit.Netlist.nodes sst.Synth.Multiport.nodes
    stats.Circuit.Netlist.capacitors stats.Circuit.Netlist.resistors
    sst.Synth.Multiport.capacitors sst.Synth.Multiport.resistors;
  (* nonlinear loads at every port in BOTH decks (the paper's setting:
     the linear block lives inside a nonlinear circuit simulation) *)
  let clamp name nl node =
    Circuit.Netlist.add nl
      (Circuit.Netlist.Nonlinear_conductance
         {
           name;
           n1 = node;
           n2 = 0;
           i_of_v = (fun v -> 1e-12 *. (exp (Float.min (v /. 0.05) 50.0) -. 1.0));
           di_dv = (fun v -> 1e-12 /. 0.05 *. exp (Float.min (v /. 0.05) 50.0));
         })
  in
  let drive = Circuit.Waveform.ramp ~rise:1e-9 2e-3 in
  let dt = 1e-11 and t_stop = if !quick then 2e-9 else 6e-9 in
  let opts = Simulate.Transient.default ~dt ~t_stop in
  (* full deck *)
  let full = bus_netlist () in
  let agg = Circuit.Netlist.node full "w0s0" in
  let vic = Circuit.Netlist.node full "w1s0" in
  Circuit.Netlist.add_current_source full 0 agg drive;
  Array.iteri (fun w _ ->
      clamp (Printf.sprintf "Dl%d" w) full
        (Circuit.Netlist.node full (Printf.sprintf "w%ds0" w)))
    names;
  let t0 = Obs.now () in
  let r_full = Simulate.Transient.run ~opts ~observe:[ agg; vic ] full in
  let t_full = Obs.now () -. t0 in
  (* reduced deck: synthesized circuit + same loads *)
  let agg_s = Circuit.Netlist.node syn "port0" in
  let vic_s = Circuit.Netlist.node syn "port1" in
  Circuit.Netlist.add_current_source syn 0 agg_s drive;
  Array.iteri (fun w _ ->
      clamp (Printf.sprintf "Dr%d" w) syn
        (Circuit.Netlist.node syn (Printf.sprintf "port%d" w)))
    names;
  let t0 = Obs.now () in
  let r_syn = Simulate.Transient.run ~opts ~observe:[ agg_s; vic_s ] syn in
  let t_syn = Obs.now () -. t0 in
  Printf.printf "\n%12s %14s %14s %14s %14s\n" "t[s]" "v_agg full" "v_agg reduced"
    "v_vic full" "v_vic reduced";
  let nsteps = r_full.Simulate.Transient.steps in
  let get r idx k = (snd (List.nth r.Simulate.Transient.voltages idx)).(k) in
  List.iter
    (fun pct ->
      let k = nsteps * pct / 100 in
      Printf.printf "%12.3e %14.6f %14.6f %14.6f %14.6f\n"
        r_full.Simulate.Transient.times.(k) (get r_full 0 k) (get r_syn 0 k)
        (get r_full 1 k) (get r_syn 1 k))
    [ 4; 8; 15; 25; 40; 60; 80; 100 ];
  csv_out "fig5_transient"
    [ "t_s"; "v_agg_full"; "v_agg_reduced"; "v_vic_full"; "v_vic_reduced" ]
    (List.init (nsteps + 1) (fun k ->
         [ r_full.Simulate.Transient.times.(k); get r_full 0 k; get r_syn 0 k;
           get r_full 1 k; get r_syn 1 k ]));
  Printf.printf "\nmax waveform deviation: %.3e V\n"
    (Simulate.Transient.max_deviation r_full r_syn);
  Printf.printf
    "CPU: full %.3fs (%d unknowns, %s) vs reduced %.3fs (%d nodes, %s) -> speedup %.1fx\n"
    t_full stats.Circuit.Netlist.nodes
    (match r_full.Simulate.Transient.backend with `Skyline -> "skyline" | `Dense -> "dense")
    t_syn sst.Synth.Multiport.nodes
    (match r_syn.Simulate.Transient.backend with `Skyline -> "skyline" | `Dense -> "dense")
    (t_full /. Float.max t_syn 1e-9);
  Printf.printf "paper: 132s vs 2.15s -> 61x (1997 testbed; shape, not absolute, is the claim)\n"

(* ------------------------------------------------------------------ *)
(* Tab. B — moment matching (the matrix-Padé property, §3.2)           *)

let tab_b () =
  section "Tab. B: matched moments vs 2*floor(n/p) guarantee";
  let _, peec = peec_mna () in
  Printf.printf "%-28s %6s %4s %9s %9s\n" "workload" "order" "p" "guarantee" "matched";
  List.iter
    (fun order ->
      let model = reduce_banded peec ~order ~band:(1e8, 5e9) in
      let matched = Sympvl.Moments.matched_count_scaled ~rtol:1e-4 model peec in
      Printf.printf "%-28s %6d %4d %9d %9d\n" "peec (LC, s^2, shifted)" order 2
        (2 * (order / 2)) matched)
    [ 10; 20; 30; 40; 50 ];
  let bus = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:3 ~sections:25 () in
  let mna = Circuit.Mna.assemble_rc bus in
  List.iter
    (fun order ->
      let model = Sympvl.Reduce.mna ~order mna in
      let matched = Sympvl.Moments.matched_count_scaled ~rtol:1e-5 model mna in
      Printf.printf "%-28s %6d %4d %9d %9d\n" "rc bus (unshifted)" order 3
        (2 * (order / 3)) matched)
    [ 6; 9; 12; 15 ];
  let rlc = Circuit.Generators.rlc_line ~r_load:50.0 ~sections:12 () in
  let mna = Circuit.Mna.assemble rlc in
  List.iter
    (fun order ->
      let model = Sympvl.Reduce.mna ~order mna in
      let matched = Sympvl.Moments.matched_count_scaled ~rtol:1e-4 model mna in
      Printf.printf "%-28s %6d %4d %9d %9d\n" "rlc line (indefinite J)" order 2
        (2 * (order / 2)) matched)
    [ 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* Tab. C — stability and passivity at every order (§5)                *)

let tab_c () =
  section "Tab. C: stability/passivity certificates for RC, RL, LC at every order";
  let cases =
    [
      ( "RC (coupled bus)",
        Circuit.Mna.assemble_rc
          (Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:3 ~sections:20 ()) );
      ( "RL (shorted ladder)",
        Circuit.Mna.assemble_rl
          (Circuit.Generators.rl_ladder ~shorted_end:true ~sections:30 ()) );
      ( "LC (mesh, shifted)",
        let nl, _ = Circuit.Generators.peec_mesh ~segments:40 () in
        Circuit.Mna.assemble_lc nl );
    ]
  in
  Printf.printf "%-20s %6s %10s %14s %12s %10s\n" "case" "order" "definite"
    "max Re(pole)" "min eig T" "passive";
  List.iter
    (fun (name, mna) ->
      List.iter
        (fun order ->
          let model = Sympvl.Reduce.mna ~order mna in
          let tmin = Linalg.Eig_sym.min_eigenvalue model.Sympvl.Model.t_mat in
          let r = model.Sympvl.Model.real in
          (* the certify MOD002 verdict, then the exact Hamiltonian band
             test (MOD003), which proves the whole axis, not just a
             sampling grid *)
          let passive =
            match Sympvl.Certify.structural_certificate r with
            | Sympvl.Certify.Certified _ -> "certified"
            | Sympvl.Certify.Violated _ -> "VIOLATED"
            | Sympvl.Certify.No_certificate _ ->
              if Linalg.Hamiltonian.violation_bands (Sympvl.Realisation.phys_pencil r) = []
              then "bands-ok"
              else "VIOLATED"
          in
          let max_re =
            Array.fold_left
              (fun acc p -> Float.max acc p.Complex.re)
              neg_infinity (Sympvl.Realisation.poles model.Sympvl.Model.real)
          in
          Printf.printf "%-20s %6d %10b %14.3e %12.3e %10s\n" name order
            model.Sympvl.Model.definite max_re tmin passive)
        [ 2; 5; 9; 14; 20 ])
    cases

(* ------------------------------------------------------------------ *)
(* Tab. D — AWE explicit-moment instability vs SyPVL (§3.1, ref [5])   *)

let tab_d () =
  section "Tab. D: AWE (explicit moments) vs SyPVL (Lanczos) error by order";
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:5 ~sections:30 () in
  let mna = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:30 1e6 5e9 in
  let sw_full = Simulate.Ac.sweep mna freqs in
  let exact k = Linalg.Cmat.get sw_full.Simulate.Ac.z.(k) 0 0 in
  Printf.printf "%6s %16s %16s %16s\n" "order" "AWE max err" "SyPVL max err" "Hankel rcond";
  List.iter
    (fun order ->
      let sypvl = Sympvl.Reduce.scalar ~order ~port:0 mna in
      let err_of eval =
        let worst = ref 0.0 in
        Array.iteri
          (fun k f ->
            let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
            let e = Linalg.Cx.abs Linalg.Cx.(eval s -: exact k) /. Linalg.Cx.abs (exact k) in
            worst := Float.max !worst e)
          freqs;
        !worst
      in
      let e_sypvl =
        err_of (fun s -> Linalg.Cmat.get (Sympvl.Realisation.eval sypvl.Sympvl.Model.real s) 0 0)
      in
      match Sympvl.Awe.build ~order ~port:0 mna with
      | awe ->
        let e_awe =
          err_of (fun s -> Linalg.Cmat.get (Sympvl.Realisation.eval awe.Sympvl.Awe.real s) 0 0)
        in
        Printf.printf "%6d %16.3e %16.3e %16.3e\n" order e_awe e_sypvl
          awe.Sympvl.Awe.hankel_rcond
      | exception Sympvl.Awe.Breakdown msg ->
        Printf.printf "%6d %16s %16.3e %16s\n" order ("break: " ^ msg) e_sypvl "-")
    [ 2; 4; 6; 8; 10; 12; 14; 16 ]

(* ------------------------------------------------------------------ *)
(* Tab. E — block-Arnoldi congruence [16] vs SyMPVL                    *)

let tab_e () =
  section "Tab. E: block-Arnoldi congruence projection vs SyMPVL (same order)";
  print_endline
    "(for symmetric definite pencils both methods project onto the same Krylov\n\
    \ space and symmetry doubles the one-sided moment count, so identical\n\
    \ accuracy on the RC bus is the expected result; the methods separate on\n\
    \ the indefinite RLC pencil, where SyMPVL's J-inner product differs)";
  let compare_on title mna orders freqs =
    let sw = Simulate.Ac.sweep mna freqs in
    Printf.printf "%s\n%6s %18s %18s %14s %14s\n" title "order" "SyMPVL max err"
      "Arnoldi max err" "SyMPVL t[ms]" "Arnoldi t[ms]";
    List.iter
      (fun order ->
        let t0 = Obs.now () in
        let sympvl = Sympvl.Reduce.mna ~order mna in
        let t1 = Obs.now () in
        let arnoldi = Sympvl.Arnoldi.reduce ~order mna in
        let t2 = Obs.now () in
        let e1 =
          Simulate.Ac.max_rel_error sw
            (Simulate.Ac.model_sweep (Sympvl.Realisation.eval sympvl.Sympvl.Model.real) freqs)
        in
        let e2 =
          Simulate.Ac.max_rel_error sw
            (Simulate.Ac.model_sweep (Sympvl.Realisation.eval arnoldi) freqs)
        in
        Printf.printf "%6d %18.3e %18.3e %14.2f %14.2f\n" order e1 e2
          ((t1 -. t0) *. 1e3)
          ((t2 -. t1) *. 1e3))
      orders
  in
  let bus = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:4 ~sections:25 () in
  compare_on "(RC bus, p = 4, definite)" (Circuit.Mna.assemble_rc bus)
    [ 8; 12; 16; 20; 24 ]
    (Simulate.Ac.log_freqs ~points:30 1e7 5e9);
  let rlc = Circuit.Generators.rlc_line ~r_load:50.0 ~sections:25 () in
  compare_on "(RLC line, p = 2, indefinite J)" (Circuit.Mna.assemble rlc)
    [ 10; 20; 30; 40 ]
    (Simulate.Ac.log_freqs ~points:30 1e7 2e9)

(* ------------------------------------------------------------------ *)
(* Tab. F — ablations (DESIGN.md §5)                                   *)

let tab_f () =
  section "Tab. F1: full vs windowed J-orthogonalisation (band Lanczos)";
  let f1 title mna ?band orders freqs =
    let sw = Simulate.Ac.sweep mna freqs in
    Printf.printf "%s\n%10s %6s %16s %12s\n" title "mode" "order" "max rel err" "reduce[ms]";
    List.iter
      (fun (name, full_ortho) ->
        List.iter
          (fun order ->
            let opts = { (Sympvl.Reduce.default ~order) with Sympvl.Reduce.band; full_ortho } in
            let t0 = Obs.now () in
            let model = Sympvl.Reduce.mna ~opts ~order mna in
            let t = Obs.now () -. t0 in
            let e =
              Simulate.Ac.max_rel_error sw
                (Simulate.Ac.model_sweep (Sympvl.Realisation.eval model.Sympvl.Model.real) freqs)
            in
            Printf.printf "%10s %6d %16.3e %12.2f\n" name order e (t *. 1e3))
          orders)
      [ ("full", true); ("windowed", false) ]
  in
  let _, package = package_mna () in
  f1 "(64-pin package, p = 16, indefinite J)" package ~band:(1e8, 1e10) [ 32; 64 ]
    (Simulate.Ac.log_freqs ~points:20 1e8 5e9);
  (* the two modes part here: the window loses J-orthogonality and with
     it accuracy the full sweep keeps *)
  let bus = Circuit.Generators.coupled_rc_bus ~terminate:1000.0 ~wires:8 ~sections:50 () in
  f1 "(coupled RC bus 8x50, p = 8, definite)" (Circuit.Mna.assemble_rc bus) [ 128 ]
    (Simulate.Ac.log_freqs ~points:30 1e7 1e10);

  section "Tab. F2: deflation tolerance (nearly dependent port columns)";
  (* widen B with an extra column that is a 1e-6 perturbation of an
     existing one: loose tolerances deflate it, tight ones keep it *)
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:3 ~sections:15 () in
  let mna0 = Circuit.Mna.assemble_rc nl in
  let near_dup =
    (* column 0 plus a 1e-6 kick on an interior node: nearly, but not
       exactly, dependent — so the outcome is tolerance-driven *)
    Linalg.Vec.init mna0.Circuit.Mna.n (fun i ->
        Linalg.Mat.get mna0.Circuit.Mna.b i 0
        +. (if i = mna0.Circuit.Mna.n / 2 then 1e-6 else 0.0))
  in
  let mna_dup = Circuit.Mna.append_output_column mna0 near_dup "near_dup" in
  Printf.printf "%10s %12s %8s %16s\n" "dtol" "deflations" "order" "max rel err";
  let freqs_dup = Simulate.Ac.log_freqs ~points:15 1e7 2e9 in
  let sw_dup = Simulate.Ac.sweep mna_dup freqs_dup in
  List.iter
    (fun dtol ->
      let opts = { (Sympvl.Reduce.default ~order:16) with Sympvl.Reduce.dtol } in
      let model = Sympvl.Reduce.mna ~opts ~order:16 mna_dup in
      let e =
        Simulate.Ac.max_rel_error sw_dup
          (Simulate.Ac.model_sweep (Sympvl.Realisation.eval model.Sympvl.Model.real) freqs_dup)
      in
      Printf.printf "%10.0e %12d %8d %16.3e\n" dtol model.Sympvl.Model.deflations
        model.Sympvl.Model.order e)
    [ 1e-4; 1e-8; 1e-12 ];

  section "Tab. F3: expansion-shift choice on the PEEC workload";
  let _, peec = peec_mna () in
  let freqs = Simulate.Ac.log_freqs ~points:25 1e8 5e9 in
  let sw = Simulate.Ac.sweep peec freqs in
  Printf.printf "%14s %16s\n" "shift (s^2)" "max rel err (n=40)";
  let band_s0 = Sympvl.Reduce.band_shift peec (1e8, 5e9) in
  List.iter
    (fun (label, s0) ->
      let opts =
        { (Sympvl.Reduce.default ~order:40) with Sympvl.Reduce.shift = Some s0 }
      in
      let model = Sympvl.Reduce.mna ~opts ~order:40 peec in
      let e =
        Simulate.Ac.max_rel_error sw (Simulate.Ac.model_sweep (Sympvl.Realisation.eval model.Sympvl.Model.real) freqs)
      in
      Printf.printf "%14s %16.3e\n" label e)
    [
      ("band/100", band_s0 /. 100.0);
      ("band (mid)", band_s0);
      ("band*100", band_s0 *. 100.0);
      ("diag-ratio", Sympvl.Reduce.auto_shift peec);
    ];

  section "Tab. F4: RCM ordering ablation (skyline factorisation fill)";
  let _, pkg = package_mna () in
  let with_ordering ordering =
    let perm =
      if ordering then Sparse.Rcm.order pkg.Circuit.Mna.g
      else Sparse.Rcm.identity pkg.Circuit.Mna.n
    in
    let shifted = Sparse.Csr.add ~alpha:1.0 ~beta:1e9 pkg.Circuit.Mna.g pkg.Circuit.Mna.c in
    let pa = Sparse.Csr.permute_sym shifted perm in
    let t0 = Obs.now () in
    let fac = Sparse.Skyline.factor_real pa in
    (Sparse.Skyline.Real.fill fac, Obs.now () -. t0)
  in
  let fill_rcm, t_rcm = with_ordering true in
  let fill_nat, t_nat = with_ordering false in
  Printf.printf "natural order: fill %d (%.3fs); RCM: fill %d (%.3fs)\n" fill_nat t_nat
    fill_rcm t_rcm

(* ------------------------------------------------------------------ *)
(* Tab. G — SyMPVL vs MPVL: the paper's efficiency claim (§8)          *)

let tab_g () =
  section "Tab. G: SyMPVL vs the more general MPVL (paper §8 efficiency claim)";
  print_endline
    "(same matrix-Padé approximant on symmetric input; SyMPVL runs one\n\
    \ J-orthogonal sequence where MPVL runs two biorthogonal ones)";
  let nl = bus_netlist () in
  let mna = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:20 1e7 2e9 in
  let sw = Simulate.Ac.sweep mna freqs in
  Printf.printf "%6s %14s %14s %16s %16s %10s\n" "order" "SyMPVL t[ms]" "MPVL t[ms]"
    "SyMPVL max err" "MPVL max err" "speedup";
  List.iter
    (fun order ->
      let t0 = Obs.now () in
      let sympvl = Sympvl.Reduce.mna ~order mna in
      let t1 = Obs.now () in
      let mpvl = Sympvl.Mpvl.reduce ~order mna in
      let t2 = Obs.now () in
      let e1 =
        Simulate.Ac.max_rel_error sw
          (Simulate.Ac.model_sweep (Sympvl.Realisation.eval sympvl.Sympvl.Model.real) freqs)
      in
      let e2 =
        Simulate.Ac.max_rel_error sw (Simulate.Ac.model_sweep (Sympvl.Realisation.eval mpvl.Sympvl.Mpvl.real) freqs)
      in
      Printf.printf "%6d %14.2f %14.2f %16.3e %16.3e %9.2fx\n" order
        ((t1 -. t0) *. 1e3)
        ((t2 -. t1) *. 1e3)
        e1 e2
        ((t2 -. t1) /. Float.max (t1 -. t0) 1e-9))
    [ 17; 34; 51; 68 ]

(* ------------------------------------------------------------------ *)
(* Tab. H — SyMPVL vs balanced truncation (modern yardstick)           *)

let tab_h () =
  section "Tab. H: SyMPVL (Krylov/Padé) vs balanced truncation (dense yardstick)";
  print_endline
    "(BT carries an a-priori H-inf bound and near-optimal accuracy per state,\n\
    \ at dense O(N^3) cost; the Krylov method trades a little accuracy for\n\
    \ scalability — the trade the paper's whole line is about)";
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:3 ~sections:30 () in
  let mna = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:30 1e6 1e10 in
  let sw = Simulate.Ac.sweep mna freqs in
  Printf.printf "(N = %d, p = 3)\n%6s %16s %16s %14s %12s %12s\n" mna.Circuit.Mna.n
    "order" "SyMPVL max err" "BT max err" "BT H∞ bound" "SyMPVL[ms]" "BT[ms]";
  List.iter
    (fun order ->
      let t0 = Obs.now () in
      let sympvl = Sympvl.Reduce.mna ~order mna in
      let t1 = Obs.now () in
      let bt = Sympvl.Btruncation.reduce ~order mna in
      let t2 = Obs.now () in
      let abs_scale =
        Array.fold_left (fun acc z -> Float.max acc (Linalg.Cmat.max_abs z)) 1e-300 sw.Simulate.Ac.z
      in
      let e1 =
        Simulate.Ac.max_rel_error sw
          (Simulate.Ac.model_sweep (Sympvl.Realisation.eval sympvl.Sympvl.Model.real) freqs)
      in
      let e2 =
        Simulate.Ac.max_rel_error sw
          (Simulate.Ac.model_sweep (Sympvl.Realisation.eval bt.Sympvl.Btruncation.real) freqs)
      in
      Printf.printf "%6d %16.3e %16.3e %14.3e %12.2f %12.2f\n" order e1 e2
        (bt.Sympvl.Btruncation.error_bound /. abs_scale)
        ((t1 -. t0) *. 1e3)
        ((t2 -. t1) *. 1e3))
    [ 4; 8; 12; 16; 20 ];
  (* multipoint ablation: one deep expansion vs two shallower points at
     the same total order *)
  section "Tab. H2: single-point vs multipoint (rational Krylov) at equal order";
  let s_lo = Sympvl.Arnoldi.shift_of_hz mna 1e7 in
  let s_hi = Sympvl.Arnoldi.shift_of_hz mna 3e9 in
  Printf.printf "%26s %10s %16s\n" "basis" "order" "max rel err";
  let report name t =
    Printf.printf "%26s %10d %16.3e\n" name (Sympvl.Realisation.order t)
      (Simulate.Ac.max_rel_error sw
         (Simulate.Ac.model_sweep (Sympvl.Realisation.eval t) freqs))
  in
  let multi = Sympvl.Arnoldi.reduce_multipoint ~points:[ (s_lo, 3); (s_hi, 3) ] mna in
  report "two points x 3 blocks" multi;
  report "one point (s=0), same n" (Sympvl.Arnoldi.reduce ~shift:0.0 ~order:(Sympvl.Realisation.order multi) mna);
  report "one point (mid), same n"
    (Sympvl.Arnoldi.reduce ~shift:(Sympvl.Arnoldi.shift_of_hz mna 3e8)
       ~order:(Sympvl.Realisation.order multi) mna)

(* ------------------------------------------------------------------ *)
(* ac — the exact-sweep engine: seed path vs symbolic reuse + SoA      *)

(* The seed AC path, replicated verbatim as the baseline the json
   records: per-point envelope re-analysis, per-entry Csr.get row
   searches, and the boxed Complex.t functor kernel. *)
let seed_ac_sweep (m : Circuit.Mna.t) freqs =
  let pattern = Sparse.Csr.add m.Circuit.Mna.g m.Circuit.Mna.c in
  let perm = Sparse.Rcm.order pattern in
  let gp = Sparse.Csr.permute_sym m.Circuit.Mna.g perm in
  let cp = Sparse.Csr.permute_sym m.Circuit.Mna.c perm in
  let n = m.Circuit.Mna.n in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let bp = Linalg.Mat.init n p (fun i j -> Linalg.Mat.get m.Circuit.Mna.b perm.(i) j) in
  let z_at s =
    let var =
      match m.Circuit.Mna.variable with
      | Circuit.Mna.S -> s
      | Circuit.Mna.S_squared -> Linalg.Cx.(s *: s)
    in
    let fg = Sparse.Skyline.envelope_of_csr gp in
    let fc = Sparse.Skyline.envelope_of_csr cp in
    let first = Array.init n (fun i -> min fg.(i) fc.(i)) in
    let get i j =
      Complex.add
        { Complex.re = Sparse.Csr.get gp i j; im = 0.0 }
        (Complex.mul var { Complex.re = Sparse.Csr.get cp i j; im = 0.0 })
    in
    let fac = Sparse.Skyline.Complex_sym.factor ~n ~first ~get () in
    let z = Linalg.Cmat.create p p in
    for c = 0 to p - 1 do
      let b = Array.init n (fun i -> Linalg.Cx.re (Linalg.Mat.get bp i c)) in
      let x = Sparse.Skyline.Complex_sym.solve fac b in
      for r = 0 to p - 1 do
        let s_acc = ref Linalg.Cx.zero in
        for i = 0 to n - 1 do
          let bi = Linalg.Mat.get bp i r in
          if bi <> 0.0 then s_acc := Linalg.Cx.(!s_acc +: smul bi x.(i))
        done;
        Linalg.Cmat.set z r c !s_acc
      done
    done;
    match m.Circuit.Mna.gain with
    | Circuit.Mna.Unit -> z
    | Circuit.Mna.Times_s -> Linalg.Cmat.scale s z
  in
  Array.map (fun f -> z_at (Linalg.Cx.im (2.0 *. Float.pi *. f))) freqs

let sweeps_bitwise_equal (a : Simulate.Ac.sweep) (b : Simulate.Ac.sweep) =
  let eq_f x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let ok = ref (Array.length a.Simulate.Ac.z = Array.length b.Simulate.Ac.z) in
  Array.iteri
    (fun k za ->
      let zb = b.Simulate.Ac.z.(k) in
      let p = Array.length a.Simulate.Ac.port_names in
      for i = 0 to p - 1 do
        for j = 0 to p - 1 do
          let x = Linalg.Cmat.get za i j and y = Linalg.Cmat.get zb i j in
          if not (eq_f x.Complex.re y.Complex.re && eq_f x.Complex.im y.Complex.im) then
            ok := false
        done
      done)
    a.Simulate.Ac.z;
  !ok

let ac_bench () =
  section "AC engine: seed path vs symbolic reuse + SoA kernel, sequential vs pooled";
  let max_jobs = Parallel.jobs () in
  let jobs_list = List.sort_uniq Int.compare [ 1; 2; max_jobs ] in
  let points = if !quick then 12 else 60 in
  let rows = ref [] in
  let run_workload name (mna : Circuit.Mna.t) f_lo f_hi =
    let p = Array.length mna.Circuit.Mna.port_names in
    let freqs = Simulate.Ac.log_freqs ~points f_lo f_hi in
    Printf.printf "\n%s: N = %d, p = %d, %d points\n" name mna.Circuit.Mna.n p points;
    (* determinism gate: the pooled sweep must be bitwise identical to
       the sequential one at every job count *)
    let reference = Simulate.Ac.sweep ~jobs:1 mna freqs in
    let bitwise =
      List.for_all
        (fun j -> sweeps_bitwise_equal reference (Simulate.Ac.sweep ~jobs:j mna freqs))
        jobs_list
    in
    Printf.printf "bitwise identical across jobs {%s}: %b\n"
      (String.concat ", " (List.map string_of_int jobs_list))
      bitwise;
    if not bitwise then exit 1;
    let ns_seed =
      measure_ns (name ^ "-seed") (fun () -> ignore (seed_ac_sweep mna freqs))
    in
    Printf.printf "%-28s %12.1f ns/point\n" "seed (Csr.get + boxed)"
      (ns_seed /. float_of_int points);
    rows :=
      Printf.sprintf
        "{\"workload\":%S,\"n\":%d,\"ports\":%d,\"points\":%d,\"engine\":\"seed\",\
         \"jobs\":1,\"ns_per_point\":%.1f,\"speedup_vs_seed\":1.0,\"bitwise_identical\":%b}"
        name mna.Circuit.Mna.n p points
        (ns_seed /. float_of_int points)
        bitwise
      :: !rows;
    let per_jobs = ref [] in
    List.iter
      (fun jobs ->
        let ns =
          measure_ns
            (Printf.sprintf "%s-j%d" name jobs)
            (fun () -> ignore (Simulate.Ac.sweep ~jobs mna freqs))
        in
        per_jobs := (jobs, ns) :: !per_jobs;
        Printf.printf "%-28s %12.1f ns/point (%.2fx vs seed)\n"
          (Printf.sprintf "soa+reuse, jobs=%d" jobs)
          (ns /. float_of_int points)
          (ns_seed /. ns);
        rows :=
          Printf.sprintf
            "{\"workload\":%S,\"n\":%d,\"ports\":%d,\"points\":%d,\
             \"engine\":\"soa_reuse\",\"jobs\":%d,\"ns_per_point\":%.1f,\
             \"speedup_vs_seed\":%.2f,\"bitwise_identical\":%b}"
            name mna.Circuit.Mna.n p points jobs
            (ns /. float_of_int points)
            (ns_seed /. ns) bitwise
          :: !rows)
      jobs_list;
    (* hard gate: asking for more workers must never cost throughput.
       jobs=2 may not beat jobs=1 on a small box (the pool caps spawned
       domains at the core count), but it must stay within noise of it.
       One jobs=1 and one jobs=2 timing per pair, the order alternating
       between pairs so drift hits both sides; each timing repeats the
       sweep for >= 50 ms so the clock's resolution does not matter;
       the gate is on the median pair ratio *)
    (match List.assoc_opt 1 !per_jobs with
    | None -> ()
    | Some ns1 ->
      let reps = max 1 (int_of_float (Float.ceil (50e6 /. ns1))) in
      let time jobs =
        let t0 = Obs.now () in
        for _ = 1 to reps do
          ignore (Simulate.Ac.sweep ~jobs mna freqs)
        done;
        Obs.now () -. t0
      in
      let pairs = 11 in
      let ratios =
        Array.init pairs (fun i ->
            if i land 1 = 0 then
              let t1 = time 1 in
              time 2 /. t1
            else
              let t2 = time 2 in
              t2 /. time 1)
      in
      Array.sort Float.compare ratios;
      let median = ratios.(pairs / 2) in
      let ok = median <= 1.05 in
      Printf.printf
        "jobs=2 within 5%% of jobs=1: %b (median %.2fx over %d alternating pairs, \
         range %.2f-%.2fx)\n"
        ok median pairs ratios.(0) ratios.(pairs - 1);
      if not ok then exit 1)
  in
  run_workload "package_model" (snd (package_mna ())) 1e8 1e10;
  run_workload "coupled_rc_bus"
    (Circuit.Mna.assemble_rc (bus_netlist ()))
    1e6 1e10;
  json_out "ac" ("[\n" ^ String.concat ",\n" (List.rev !rows) ^ "\n]\n")

(* ------------------------------------------------------------------ *)
(* ordering study — symbolic fill prediction vs actual factorisation   *)

let ordering_study () =
  section "Ordering study: predicted vs actual factor nnz (natural / RCM / AMD)";
  print_endline
    "(predicted = elimination-tree column counts on the pattern alone;\n\
    \ actual = nonzeros of a dense Cholesky factor of G + s0*C — they must\n\
    \ agree exactly on these M-matrix workloads. skyline = envelope fill the\n\
    \ skyline backend stores under the same ordering.)";
  let workloads =
    [
      ( "rc_line",
        Circuit.Mna.assemble_rc
          (Circuit.Generators.rc_line ~sections:(if !quick then 60 else 300) ()) );
      ( "rc_grid",
        Circuit.Mna.assemble_rc
          (if !quick then Circuit.Generators.rc_grid ~rows:10 ~cols:12 ()
           else Circuit.Generators.rc_grid ~rows:20 ~cols:25 ()) );
    ]
  in
  let rows = ref [] in
  Printf.printf "\n%-8s %-8s %6s %10s %12s %12s %12s %12s\n" "workload" "ordering" "n"
    "pattern" "predicted" "actual" "skyline" "factor[ms]";
  List.iter
    (fun (wname, (mna : Circuit.Mna.t)) ->
      let pat = Circuit.Mna.pencil_pattern mna in
      let n = mna.Circuit.Mna.n in
      (* what the pipeline actually factors: G + s0·C, SPD here *)
      let shifted =
        Sparse.Csr.add ~alpha:1.0 ~beta:1e9 mna.Circuit.Mna.g mna.Circuit.Mna.c
      in
      List.iter
        (fun (oname, perm) ->
          let predicted = Sparse.Etree.predicted_nnz pat perm in
          let pa = Sparse.Csr.permute_sym shifted perm in
          let actual =
            let l = Linalg.Chol.l (Linalg.Chol.factor (Sparse.Csr.to_dense pa)) in
            let c = ref 0 in
            for i = 0 to n - 1 do
              for j = 0 to i do
                if Linalg.Mat.get l i j <> 0.0 then incr c
              done
            done;
            !c
          in
          let t0 = Obs.now () in
          let fac = Sparse.Skyline.factor_real pa in
          let t_factor = Obs.now () -. t0 in
          let fill = Sparse.Skyline.Real.fill fac in
          Printf.printf "%-8s %-8s %6d %10d %12d %12d %12d %12.2f\n" wname oname n
            (Sparse.Csr.nnz pat) predicted actual fill (t_factor *. 1e3);
          rows :=
            Printf.sprintf
              "{\"workload\":%S,\"ordering\":%S,\"n\":%d,\"pattern_nnz\":%d,\
               \"predicted_factor_nnz\":%d,\"actual_factor_nnz\":%d,\
               \"skyline_fill\":%d,\"factor_ms\":%.3f}"
              wname oname n (Sparse.Csr.nnz pat) predicted actual fill
              (t_factor *. 1e3)
            :: !rows)
        [
          ("natural", Sparse.Rcm.identity n);
          ("rcm", Sparse.Rcm.order pat);
          ("amd", Sparse.Amd.order pat);
        ])
    workloads;
  json_out "ordering" ("[\n" ^ String.concat ",\n" (List.rev !rows) ^ "\n]\n")

(* ------------------------------------------------------------------ *)
(* factor — AMD supernodal vs RCM skyline on a large 2D grid           *)

let factor_bench () =
  section "Factor backends: AMD+supernodal vs RCM+skyline on a 2D RC grid";
  (* the workload the supernodal backend exists for: genuinely
     two-dimensional sparsity, where the RCM envelope stores (and
     processes) several times the fill AMD elimination produces. The
     full size is the 10^5-unknown scale the ROADMAP targets; quick is
     a CI-sized smoke of the same gates. *)
  let gr, gc = if !quick then (100, 100) else (320, 320) in
  let nl = Circuit.Generators.rc_grid ~pitch_pads:(max gr gc) ~rows:gr ~cols:gc () in
  let mna = Circuit.Mna.assemble_rc nl in
  let g = mna.Circuit.Mna.g and c = mna.Circuit.Mna.c in
  let n = mna.Circuit.Mna.n in
  let pat = Sparse.Csr.add g c in
  let s0 = 1e9 in
  Printf.printf "rc_grid %dx%d: N = %d, pattern nnz = %d, shift s0 = %g\n" gr gc n
    (Sparse.Csr.nnz pat) s0;
  let nsolve = 8 in
  let reps = if !quick then 3 else 1 in
  let b0 = Linalg.Vec.init n (fun i -> 1.0 +. float_of_int (i mod 7)) in
  (* time [reps] rounds of (symbolic-free numeric factor + nsolve
     triangular solves) through the production Factor.t wrappers and
     keep the best round; returns the solution for the oracle check *)
  let time_rounds factor_once =
    let best_f = ref infinity and best_s = ref infinity in
    let x = Linalg.Vec.create n and work = Linalg.Vec.create n in
    for _ = 1 to reps do
      let t0 = Obs.now () in
      let fac = factor_once () in
      let t1 = Obs.now () in
      for _ = 1 to nsolve do
        Array.blit b0 0 work 0 n;
        fac.Sympvl.Factor.solve work x
      done;
      let t2 = Obs.now () in
      best_f := Float.min !best_f (t1 -. t0);
      best_s := Float.min !best_s (t2 -. t1)
    done;
    (!best_f, !best_s, x)
  in
  (* supernodal: AMD ordering, shared symbolic phase, panel kernels *)
  let t0 = Obs.now () in
  let amd = Sparse.Supernodal.order pat in
  let predicted = Sparse.Etree.predicted_nnz pat amd in
  let sym =
    Sparse.Supernodal.symbolic ~c:(Sparse.Csr.permute_sym c amd)
      (Sparse.Csr.permute_sym g amd)
  in
  let t_super_sym = Obs.now () -. t0 in
  let super_fill = ref 0 in
  let t_super_f, t_super_s, x_super =
    time_rounds (fun () ->
        let fac = Sparse.Supernodal.Real.factor sym s0 in
        super_fill := Sparse.Supernodal.Real.fill fac;
        Sympvl.Factor.of_ldlt ~kind:`Supernodal ~perm:amd
          ~d:(Sparse.Supernodal.Real.d fac)
          ~solve_lower:(Sparse.Supernodal.Real.solve_lower fac)
          ~solve_lower_t:(Sparse.Supernodal.Real.solve_lower_t fac))
  in
  Printf.printf "%-26s symbolic %6.3fs  factor %6.3fs  %d solves %6.3fs  \
                 nnz %d (%d supernodes)\n"
    "amd+supernodal" t_super_sym t_super_f nsolve t_super_s !super_fill
    (Sparse.Supernodal.supernodes sym);
  (* skyline: RCM ordering, envelope with pre-scattered G/C rows *)
  let t0 = Obs.now () in
  let rcm = Sparse.Rcm.order pat in
  let env =
    Sparse.Skyline.pencil_env (Sparse.Csr.permute_sym g rcm)
      (Sparse.Csr.permute_sym c rcm)
  in
  let t_sky_sym = Obs.now () -. t0 in
  let sky_fill = ref 0 in
  let t_sky_f, t_sky_s, x_sky =
    time_rounds (fun () ->
        let fac = Sparse.Skyline.factor_pencil_real env s0 in
        sky_fill := Sparse.Skyline.Real.fill fac;
        Sympvl.Factor.of_ldlt ~kind:`Skyline ~perm:rcm
          ~d:(Sparse.Skyline.Real.d fac)
          ~solve_lower:(Sparse.Skyline.Real.solve_lower fac)
          ~solve_lower_t:(Sparse.Skyline.Real.solve_lower_t fac))
  in
  Printf.printf "%-26s symbolic %6.3fs  factor %6.3fs  %d solves %6.3fs  \
                 envelope fill %d\n"
    "rcm+skyline" t_sky_sym t_sky_f nsolve t_sky_s !sky_fill;
  (* accuracy oracle: both backends solve the same system *)
  let err = ref 0.0 and scale = ref 0.0 in
  for i = 0 to n - 1 do
    err := Float.max !err (Float.abs (x_super.(i) -. x_sky.(i)));
    scale := Float.max !scale (Float.abs x_sky.(i))
  done;
  let rel_err = !err /. Float.max !scale 1e-300 in
  let speedup = (t_sky_f +. t_sky_s) /. Float.max (t_super_f +. t_super_s) 1e-12 in
  let plan_pick =
    match Sympvl.Factor.plan ~nodes:n pat with
    | `Supernodal _ -> "supernodal"
    | `Skyline _ -> "skyline"
  in
  Printf.printf
    "factor+%d-solve speedup %.2fx; solutions agree to %.3e rel; plan picks %s\n"
    nsolve speedup rel_err plan_pick;
  json_out "factor"
    (Printf.sprintf
       "{\"workload\":\"rc_grid\",\"rows\":%d,\"cols\":%d,\"n\":%d,\
        \"pattern_nnz\":%d,\"shift\":%g,\"predicted_factor_nnz\":%d,\
        \"supernodal_nnz\":%d,\"supernodes\":%d,\"skyline_fill\":%d,\
        \"supernodal_symbolic_s\":%.4f,\"supernodal_factor_s\":%.4f,\
        \"supernodal_solves_s\":%.4f,\"skyline_symbolic_s\":%.4f,\
        \"skyline_factor_s\":%.4f,\"skyline_solves_s\":%.4f,\"nsolve\":%d,\
        \"speedup_factor_solve\":%.3f,\"solution_rel_err\":%.3e,\
        \"plan_pick\":%S}\n"
       gr gc n (Sparse.Csr.nnz pat) s0 predicted !super_fill
       (Sparse.Supernodal.supernodes sym)
       !sky_fill t_super_sym t_super_f t_super_s t_sky_sym t_sky_f t_sky_s nsolve
       speedup rel_err plan_pick);
  (* hard gates — the acceptance criteria of the supernodal backend:
     exact symbolic fill (the numeric phase stores precisely what the
     elimination tree predicts), a real end-to-end win over the skyline
     at scale, and agreeing solutions *)
  if !super_fill <> predicted then begin
    Printf.printf "FAIL: supernodal nnz %d != Etree predicted %d\n" !super_fill
      predicted;
    exit 1
  end;
  let floor_x = if !quick then 1.5 else 3.0 in
  if speedup < floor_x then begin
    Printf.printf "FAIL: factor+solve speedup %.2fx < %.1fx\n" speedup floor_x;
    exit 1
  end;
  if rel_err > 1e-8 then begin
    Printf.printf "FAIL: backends disagree (%.3e rel)\n" rel_err;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* kernel microbenchmarks (bechamel)                                   *)

let kernels () =
  section "Kernel timings (bechamel OLS estimates)";
  let _, pkg = package_mna () in
  let band = (1e8, 1e10) in
  let ws_point = Linalg.Cx.im (2.0 *. Float.pi *. 1e9) in
  let rom = Sympvl.Rom.Sympvl_model (reduce_banded pkg ~order:48 ~band) in
  let tests =
    [
      ( "package: SyMPVL order 48",
        fun () -> ignore (reduce_banded pkg ~order:48 ~band) );
      ( "package: Rom.eval (order 48)",
        fun () -> ignore (Sympvl.Rom.eval rom ws_point) );
      ("package: exact AC point", fun () -> ignore (Simulate.Ac.z_at pkg ws_point));
      ( "package: Pencil.create + factor at s0",
        fun () -> ignore (Sympvl.Pencil.factor (Sympvl.Pencil.create pkg) ~shift:1e9) );
    ]
  in
  List.iter
    (fun (name, fn) ->
      let ns = measure_ns name fn in
      Printf.printf "%-40s %12.3f ms/run\n" name (ns /. 1e6))
    tests

(* ------------------------------------------------------------------ *)
(* observability gates — disabled probes must allocate nothing, and    *)
(* enabling tracing must not perturb the pooled sweep                  *)

let obs_gate () =
  section "Observability: zero-allocation gate + tracing-on determinism";
  (* gate 1: with tracing disabled every probe is a load-and-branch.
     The countf/instant sites follow the repo convention of a
     [tracing ()] guard so their float/list arguments are never built;
     span_begin/count take only immediates and statics and are called
     unguarded, exactly as the hot paths do. *)
  Obs.disable ();
  Obs.reset ();
  let iters = 1_000_000 in
  let before = Gc.allocated_bytes () in
  for i = 0 to iters - 1 do
    Obs.span_begin "gate.span";
    Obs.count "gate.count" i;
    if Obs.tracing () then Obs.countf "gate.countf" (float_of_int i);
    if Obs.tracing () then Obs.instant ~args:[ ("i", Obs.Int i) ] "gate.instant";
    Obs.span_end ()
  done;
  let alloc_bytes = Gc.allocated_bytes () -. before in
  Printf.printf "disabled probes: %d iterations, %.0f bytes allocated\n" iters
    alloc_bytes;
  if alloc_bytes > 1024.0 then begin
    Printf.eprintf "FAIL: disabled probes allocate (%.0f bytes > 1024)\n" alloc_bytes;
    exit 1
  end;
  let ns_probe =
    measure_ns "disabled-probe" (fun () ->
        Obs.span_begin "gate.span";
        Obs.count "gate.count" 1;
        Obs.span_end ())
  in
  Printf.printf "disabled probe triple: %.2f ns\n" ns_probe;
  (* gate 2: the acceptance criterion — pooled Ac.sweep stays bitwise
     identical at jobs 1/2/4 *with tracing on* (per-domain buffers,
     merge at join; see lib/obs). *)
  let mna = Circuit.Mna.assemble_rc (bus_netlist ()) in
  let points = if !quick then 8 else 24 in
  let freqs = Simulate.Ac.log_freqs ~points 1e6 1e10 in
  let ns_off =
    measure_ns "sweep-obs-off" (fun () -> ignore (Simulate.Ac.sweep ~jobs:1 mna freqs))
  in
  Obs.enable ();
  let reference = Simulate.Ac.sweep ~jobs:1 mna freqs in
  let jobs_list = [ 2; 4 ] in
  let bitwise =
    List.for_all
      (fun j -> sweeps_bitwise_equal reference (Simulate.Ac.sweep ~jobs:j mna freqs))
      jobs_list
  in
  Printf.printf "tracing ON: N = %d, %d points, bitwise identical across jobs {1, 2, 4}: %b\n"
    mna.Circuit.Mna.n points bitwise;
  if not bitwise then begin
    Printf.eprintf "FAIL: tracing perturbed the pooled sweep\n";
    exit 1
  end;
  (* sanity: the instrumented phases actually recorded *)
  let recorded = List.map (fun st -> st.Obs.span_name) (Obs.span_stats ()) in
  List.iter
    (fun name ->
      if not (List.mem name recorded) then begin
        Printf.eprintf "FAIL: no '%s' spans recorded with tracing on\n" name;
        exit 1
      end)
    [ "ac.sweep"; "ac.point"; "ac.solve"; "ac.symbolic"; "skyline.numeric" ];
  if Obs.counter_value "ac.points" <= 0.0 then begin
    Printf.eprintf "FAIL: ac.points counter never incremented\n";
    exit 1
  end;
  let ns_on =
    measure_ns "sweep-obs-on" (fun () -> ignore (Simulate.Ac.sweep ~jobs:1 mna freqs))
  in
  Obs.disable ();
  Obs.reset ();
  let per_point ns = ns /. float_of_int points in
  let overhead_pct = 100.0 *. ((ns_on /. ns_off) -. 1.0) in
  Printf.printf "sequential sweep: %.1f ns/point off, %.1f ns/point on (%+.2f%% when enabled)\n"
    (per_point ns_off) (per_point ns_on) overhead_pct;
  json_out "obs"
    (Printf.sprintf
       "{\"disabled_probe_iters\":%d,\"disabled_probe_alloc_bytes\":%.0f,\
        \"disabled_probe_ns\":%.2f,\"bitwise_identical_tracing_on\":%b,\
        \"ns_per_point_off\":%.1f,\"ns_per_point_on\":%.1f,\
        \"enabled_overhead_pct\":%.2f}\n"
       iters alloc_bytes ns_probe bitwise (per_point ns_off) (per_point ns_on)
       overhead_pct)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* pencil — shared symbolic context vs per-call rebuild                *)

let pencil_bench () =
  section "Pencil: shared symbolic context vs per-call rebuild";
  let nl = bus_netlist () in
  let mna = Circuit.Mna.assemble_rc nl in
  let n = mna.Circuit.Mna.n in
  Printf.printf "\ncoupled RC bus: N = %d, p = %d\n" n
    (Array.length mna.Circuit.Mna.port_names);
  (* repeated Moments.exact: the seed path pays STR001 matching, RCM,
     envelope merge and a fresh factorisation on every call; against a
     shared context every call after the first is a cache hit *)
  let k = 4 in
  let ctx = Sympvl.Pencil.create mna in
  ignore (Sympvl.Moments.exact ~ctx mna k);
  let ns_cold = measure_ns "moments-cold" (fun () -> ignore (Sympvl.Moments.exact mna k)) in
  let ns_ctx =
    measure_ns "moments-ctx" (fun () -> ignore (Sympvl.Moments.exact ~ctx mna k))
  in
  let moments_speedup = ns_cold /. ns_ctx in
  Printf.printf "%-36s %12.1f ns/call\n" "Moments.exact (fresh context)" ns_cold;
  Printf.printf "%-36s %12.1f ns/call (%.1fx)\n" "Moments.exact (shared context)" ns_ctx
    moments_speedup;
  (* transient-style repeated factor at a fixed integrator shift γ:
     per-step pencil assembly + envelope analysis + factorisation
     (the per-step cost without a context) vs the context's memo hit *)
  let gamma = 2.0 /. 1e-11 in
  ignore (Sympvl.Pencil.factor ctx ~shift:gamma);
  let ns_step_cold =
    measure_ns "step-cold" (fun () ->
        ignore
          (Sparse.Skyline.factor_real
             (Sparse.Csr.add ~alpha:1.0 ~beta:gamma mna.Circuit.Mna.g
                mna.Circuit.Mna.c)))
  in
  let ns_step_ctx =
    measure_ns "step-ctx" (fun () -> ignore (Sympvl.Pencil.factor ctx ~shift:gamma))
  in
  let step_speedup = ns_step_cold /. ns_step_ctx in
  Printf.printf "%-36s %12.1f ns/step\n" "transient factor (assemble+factor)" ns_step_cold;
  Printf.printf "%-36s %12.1f ns/step (%.1fx)\n" "transient factor (context hit)" ns_step_ctx
    step_speedup;
  (* determinism gate: the context-backed AC sweep stays bitwise
     identical at every job count *)
  let freqs = Simulate.Ac.log_freqs ~points:(if !quick then 12 else 32) 1e6 1e10 in
  let reference = Simulate.Ac.sweep ~jobs:1 mna freqs in
  let bitwise =
    List.for_all
      (fun j -> sweeps_bitwise_equal reference (Simulate.Ac.sweep ~jobs:j mna freqs))
      [ 1; 2; 4 ]
  in
  Printf.printf "AC sweep bitwise identical across jobs {1, 2, 4}: %b\n" bitwise;
  json_out "pencil"
    (Printf.sprintf
       "{\"workload\":\"coupled_rc_bus\",\"n\":%d,\"moments_k\":%d,\
        \"moments_cold_ns\":%.1f,\"moments_ctx_ns\":%.1f,\"moments_speedup\":%.2f,\
        \"step_cold_ns\":%.1f,\"step_ctx_ns\":%.1f,\"step_speedup\":%.2f,\
        \"bitwise_identical\":%b}\n"
       n k ns_cold ns_ctx moments_speedup ns_step_cold ns_step_ctx step_speedup bitwise);
  (* hard gates: the shared context must pay for itself on repeated
     moment evaluation, and must never perturb pooled results *)
  if not bitwise then exit 1;
  if moments_speedup < 2.0 then begin
    Printf.printf "FAIL: shared-context Moments speedup %.2fx < 2.0x\n" moments_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* certify — certification cost vs the reduction it audits             *)

let certify_bench () =
  section "Certify: full MOD001-MOD010 pass vs the reduction it audits";
  let rows = ref [] in
  let run_one name (mna : Circuit.Mna.t) ~order ~end_to_end =
    let n = mna.Circuit.Mna.n in
    (* reduce is measured cold (fresh symbolic context per call — what
       `symor reduce` pays end to end); certify shares the context with
       the reduction it audits, exactly as `symor reduce --certify` *)
    let ns_reduce =
      if end_to_end then
        measure_ns (name ^ "-reduce") (fun () ->
            ignore (Sympvl.Rom.reduce ~order `Sympvl mna))
      else begin
        let ctx = Sympvl.Pencil.create mna in
        ignore (Sympvl.Rom.reduce ~ctx ~order `Sympvl mna);
        measure_ns (name ^ "-reduce") (fun () ->
            ignore (Sympvl.Rom.reduce ~ctx ~order `Sympvl mna))
      end
    in
    let ctx = Sympvl.Pencil.create mna in
    let model = Sympvl.Rom.reduce ~ctx ~order `Sympvl mna in
    let ns_certify =
      measure_ns (name ^ "-certify") (fun () ->
          ignore (Sympvl.Certify.run ~ctx model mna))
    in
    let ratio = ns_certify /. ns_reduce in
    let findings = (Sympvl.Certify.run ~ctx model mna).Sympvl.Certify.findings in
    let clean =
      List.for_all
        (fun d -> d.Circuit.Diagnostic.severity = Circuit.Diagnostic.Info)
        findings
    in
    Printf.printf "%-16s N=%5d n=%3d  reduce %10.1f us  certify %10.1f us \
                   (%.2fx)  clean=%b\n"
      name n order (ns_reduce /. 1e3) (ns_certify /. 1e3) ratio clean;
    rows :=
      Printf.sprintf
        "{\"workload\":%S,\"n\":%d,\"order\":%d,\"reduce_ns\":%.1f,\
         \"certify_ns\":%.1f,\"certify_over_reduce\":%.3f,\"clean\":%b}"
        name n order ns_reduce ns_certify ratio clean
      :: !rows;
    (ratio, clean)
  in
  (* part 1: the shipped example netlists at full order — the CI
     configuration (symor certify --strict); every pass must be clean *)
  Printf.printf "\nshipped examples, SyMPVL at full order:\n";
  let all_clean = ref true in
  List.iter
    (fun base ->
      let nl = Circuit.Parser.parse_file ("examples/netlists/" ^ base ^ ".cir") in
      let mna = Circuit.Mna.auto nl in
      let _, clean =
        run_one base mna ~order:mna.Circuit.Mna.n ~end_to_end:false
      in
      if not clean then all_clean := false)
    [ "rc_line"; "lc_tank"; "rl_ladder"; "coupled_lines" ];
  (* part 2: certification overhead at order <= 40 on a reduction big
     enough that the Lanczos sweep dominates — certify must stay a
     small fraction of the end-to-end reduce wall time *)
  Printf.printf "\nscaled RC line, order 40:\n";
  let sections = if !quick then 800 else 1500 in
  let mna =
    Circuit.Mna.assemble_rc (Circuit.Generators.rc_line ~sections ())
  in
  let ratio, _ = run_one "rc_line_scaled" mna ~order:40 ~end_to_end:true in
  json_out "certify" ("[\n" ^ String.concat ",\n" (List.rev !rows) ^ "\n]\n");
  (* hard gates: the shipped passive examples certify clean, and the
     order-40 certification costs at most a quarter of the reduction it
     audits (quick mode is a smoke run at a smaller size where the
     reduction is too cheap to hide behind — parity is enough there) *)
  if not !all_clean then begin
    Printf.printf "FAIL: a shipped example did not certify clean\n";
    exit 1
  end;
  let cap = if !quick then 1.0 else 0.25 in
  if ratio > cap then begin
    Printf.printf "FAIL: certify/reduce ratio %.3f exceeds the %.2f cap\n" ratio cap;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* serve daemon load generator — spawns the real symor binary (the    *)
(* daemon owns worker domains, so it must live in its own process)    *)

module J = Serve.Json

let find_symor () =
  let candidates =
    (match Sys.getenv_opt "SYMOR_BIN" with Some p -> [ p ] | None -> [])
    @ [ "_build/default/bin/symor.exe"; "bin/symor.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
    Printf.eprintf
      "serve bench: symor binary not found (run `dune build bin` first, or set \
       SYMOR_BIN)\n";
    exit 1

let serve_socket_counter = ref 0

let with_serve_daemon exe extra_args f =
  incr serve_socket_counter;
  let sock =
    Printf.sprintf "/tmp/symor-bench-%d-%d.sock" (Unix.getpid ())
      !serve_socket_counter
  in
  (match Unix.unlink sock with () -> () | exception Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: [ "serve"; "--socket"; sock ]) @ extra_args))
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (match Unix.kill pid Sys.sigterm with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      let _, status = Unix.waitpid [] pid in
      (match Unix.unlink sock with () -> () | exception Unix.Unix_error _ -> ());
      match status with
      | Unix.WEXITED 0 -> ()
      | _ ->
        Printf.eprintf "serve bench: daemon did not exit cleanly on SIGTERM\n";
        exit 1)
    (fun () ->
      let c = Serve.Client.connect ~deadline_s:10.0 (`Unix sock) in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c))

let serve_ac_request ?(points = 16) text =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "ac");
         ("netlist", J.Str text);
         ("points", J.Num (float_of_int points));
       ])

let serve_reduce_request ?(order = 8) text =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "reduce");
         ("netlist", J.Str text);
         ("order", J.Num (float_of_int order));
       ])

let serve_roundtrip c line =
  match Serve.Client.request c line with
  | Some resp -> resp
  | None ->
    Printf.eprintf "serve bench: daemon closed the connection\n";
    exit 1

let serve_stats c =
  let j = J.parse (serve_roundtrip c {|{"op":"stats"}|}) in
  let geti path =
    match J.to_int_opt (List.fold_left (fun v k -> J.member k v) j path) with
    | Some v -> v
    | None ->
      Printf.eprintf "serve bench: malformed stats response\n";
      exit 1
  in
  ( geti [ "cache"; "hits" ],
    geti [ "cache"; "misses" ],
    geti [ "cache"; "point_hits" ] )

let percentile_ms sorted p =
  let n = Array.length sorted in
  let i = int_of_float (Float.round (p *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) i)) *. 1e3

let serve_bench () =
  section "Serve daemon: warm cache, hit rate, latency, payload identity";
  let exe = find_symor () in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let examples =
    List.map
      (fun name -> read_file (Filename.concat "examples/netlists" (name ^ ".cir")))
      [ "rc_line"; "lc_tank"; "rl_ladder"; "coupled_lines" ]
  in
  (* -------- gate 1: warm-cache AC >= 10x faster than cold ---------- *)
  (* a grid big enough that the cold sweep dwarfs the socket round
     trip; warm answers come straight from the entry's point table *)
  let rows, cols, points =
    if !quick then (16, 16, 64) else (24, 24, 96)
  in
  (* two ports only (pitch_pads past the boundary): the warm path then
     measures the round trip, not the rendering of a many-port matrix *)
  let grid_text =
    Circuit.Parser.to_string
      (Circuit.Generators.rc_grid ~pitch_pads:1000 ~rows ~cols ())
  in
  let grid_req = serve_ac_request ~points grid_text in
  let cold_s, warm_s =
    with_serve_daemon exe [] (fun c ->
        let t0 = Obs.now () in
        let cold_resp = serve_roundtrip c grid_req in
        let cold = Obs.now () -. t0 in
        let warm = ref Float.infinity in
        let warm_resp = ref "" in
        for _ = 1 to 5 do
          let t0 = Obs.now () in
          warm_resp := serve_roundtrip c grid_req;
          warm := Float.min !warm (Obs.now () -. t0)
        done;
        if not (String.equal cold_resp !warm_resp) then begin
          Printf.eprintf "FAIL: warm response differs from cold response\n";
          exit 1
        end;
        (cold, !warm))
  in
  let speedup = cold_s /. warm_s in
  Printf.printf "cold AC (%d pts, %dx%d grid): %.2f ms; warm: %.3f ms; speedup %.1fx\n"
    points rows cols (cold_s *. 1e3) (warm_s *. 1e3) speedup;
  if speedup < 10.0 then begin
    Printf.eprintf "FAIL: warm-cache speedup %.1fx below the 10x gate\n" speedup;
    exit 1
  end;
  (* -------- gates 2+3: load mix per job count ---------------------- *)
  let rounds = if !quick then 25 else 50 in
  let runs =
    List.map
      (fun jobs ->
        with_serve_daemon exe [ "--jobs"; string_of_int jobs ] (fun c ->
            let lats = ref [] in
            let payloads = Buffer.create 4096 in
            let t_start = Obs.now () in
            for _ = 1 to rounds do
              List.iter
                (fun text ->
                  List.iter
                    (fun req ->
                      let t0 = Obs.now () in
                      let resp = serve_roundtrip c req in
                      lats := (Obs.now () -. t0) :: !lats;
                      Buffer.add_string payloads resp;
                      Buffer.add_char payloads '\n')
                    [ serve_ac_request text; serve_reduce_request text ])
                examples
            done;
            let wall = Obs.now () -. t_start in
            let hits, misses, _ = serve_stats c in
            let lat = Array.of_list !lats in
            Array.sort Float.compare lat;
            let n_req = Array.length lat in
            let hit_rate = float_of_int hits /. float_of_int (hits + misses) in
            Printf.printf
              "jobs %d: %d requests in %.2f s (%.0f req/s), p50 %.2f ms, p99 %.2f \
               ms, cache hit rate %.3f\n"
              jobs n_req wall
              (float_of_int n_req /. wall)
              (percentile_ms lat 0.50) (percentile_ms lat 0.99) hit_rate;
            ( jobs,
              n_req,
              wall,
              percentile_ms lat 0.50,
              percentile_ms lat 0.99,
              hit_rate,
              Digest.to_hex (Digest.string (Buffer.contents payloads)) )))
      [ 1; 2; 4 ]
  in
  List.iter
    (fun (jobs, _, _, _, _, hit_rate, _) ->
      if hit_rate < 0.95 then begin
        Printf.eprintf "FAIL: jobs %d cache hit rate %.3f below the 0.95 gate\n"
          jobs hit_rate;
        exit 1
      end)
    runs;
  let digests = List.map (fun (_, _, _, _, _, _, d) -> d) runs in
  let identical = List.for_all (fun d -> String.equal d (List.hd digests)) digests in
  Printf.printf "response payloads bitwise identical across jobs {1, 2, 4}: %b\n"
    identical;
  if not identical then begin
    Printf.eprintf "FAIL: response payloads differ across job counts\n";
    exit 1
  end;
  (* -------- pipelined demo: one write, many same-model requests --- *)
  let point_hits =
    with_serve_daemon exe [] (fun c ->
        let req = serve_ac_request (List.hd examples) in
        (* 8 lines in a single write, read in one loop tick: the first
           request sweeps its points, the other 7 read them back from
           the point table *)
        let block = String.concat "\n" (List.init 8 (fun _ -> req)) in
        Serve.Client.send_line c block;
        for _ = 1 to 8 do
          match Serve.Client.recv_line c with
          | Some _ -> ()
          | None ->
            Printf.eprintf "serve bench: daemon closed during pipelined read\n";
            exit 1
        done;
        let _, _, point_hits = serve_stats c in
        point_hits)
  in
  Printf.printf "pipelined 8 identical 16-pt AC requests: %d point hits\n" point_hits;
  let json =
    let run_json (jobs, n_req, wall, p50, p99, hit_rate, digest) =
      J.Obj
        [
          ("jobs", J.Num (float_of_int jobs));
          ("requests", J.Num (float_of_int n_req));
          ("wall_s", J.Num wall);
          ("rps", J.Num (float_of_int n_req /. wall));
          ("p50_ms", J.Num p50);
          ("p99_ms", J.Num p99);
          ("hit_rate", J.Num hit_rate);
          ("payload_digest", J.Str digest);
        ]
    in
    J.to_string
      (J.Obj
         [
           ("cold_s", J.Num cold_s);
           ("warm_s", J.Num warm_s);
           ("warm_speedup", J.Num speedup);
           ("payload_identical", J.Bool identical);
           ("pipelined_point_hits", J.Num (float_of_int point_hits));
           ("runs", J.List (List.map run_json runs));
         ])
  in
  json_out "serve" (json ^ "\n")

(* ------------------------------------------------------------------ *)
(* SPRIM: structure preservation at the partial-inductance scale       *)

let sprim_bench () =
  section "SPRIM: block-structure preservation and k-coupled accuracy";
  let rows = ref [] in
  (* part 1 — the MORCIC regime: a >= 10^4-element partial-inductance
     RLCk bus. The reduced nodal blocks must stay exactly symmetric
     (structure_error = 0, M/D/K bitwise symmetric) and the model must
     certify with every finding at info level (MOD002 may only report
     the expected no-certificate note; MOD003 must find no passivity
     violation). *)
  let conductors, segments = if !quick then (16, 54) else (40, 125) in
  let nl = Circuit.Generators.peec_partial ~conductors ~segments () in
  let elements = List.length (Circuit.Netlist.elements nl) in
  let mna = Circuit.Mna.assemble nl in
  let order = 40 in
  let ctx = Sympvl.Pencil.create mna in
  (* counters on for the reduction and its certification: the dense
     fallback gate reads [factor.fallback_dense] *)
  Obs.reset ();
  Obs.enable ();
  let t0 = Obs.now () in
  let sp = Sympvl.Sprim.reduce ~ctx ~order mna in
  let reduce_s = Obs.now () -. t0 in
  let serr = Sympvl.Sprim.structure_error sp in
  let sym m = Linalg.Mat.dist_max m (Linalg.Mat.transpose m) = 0.0 in
  let blocks_sym =
    sym sp.Sympvl.Sprim.cn && sym sp.Sympvl.Sprim.gn && sym sp.Sympvl.Sprim.lmat
  in
  let rep = Sympvl.Certify.run ~ctx (Sympvl.Rom.Sprim_model sp) mna in
  let fallback_dense = int_of_float (Obs.counter_value "factor.fallback_dense") in
  Obs.disable ();
  Obs.reset ();
  let clean =
    List.for_all
      (fun d -> d.Circuit.Diagnostic.severity = Circuit.Diagnostic.Info)
      rep.Sympvl.Certify.findings
  in
  (* the hard gate is the passivity story: MOD002 (structural
     certificate status) and MOD003 (Hamiltonian test) must sit at
     info level. The full-report flag is recorded in the JSON — at
     this scale the explicit MOD005 moment comparison is numerically
     fragile for every Krylov engine and is not gated. *)
  let mod23_clean =
    List.for_all
      (fun d ->
        (d.Circuit.Diagnostic.code <> "MOD002"
        && d.Circuit.Diagnostic.code <> "MOD003")
        || d.Circuit.Diagnostic.severity = Circuit.Diagnostic.Info)
      rep.Sympvl.Certify.findings
  in
  Printf.printf
    "peec_partial %dx%d: %d elements, N=%d -> n=%d (n1=%d, n2=%d) in %.2f s\n"
    conductors segments elements mna.Circuit.Mna.n (Sympvl.Realisation.order sp.Sympvl.Sprim.real)
    sp.Sympvl.Sprim.n1 sp.Sympvl.Sprim.n2 reduce_s;
  Printf.printf
    "structure error %.1e; M/D/K symmetric %b; MOD002/MOD003 clean %b (full \
     report clean %b); dense fallbacks %d\n"
    serr blocks_sym mod23_clean clean fallback_dense;
  List.iter
    (fun d ->
      if d.Circuit.Diagnostic.severity <> Circuit.Diagnostic.Info then
        Format.printf "  %a@." Circuit.Diagnostic.pp d)
    rep.Sympvl.Certify.findings;
  rows :=
    Printf.sprintf
      "{\"workload\":\"peec_partial\",\"conductors\":%d,\"segments\":%d,\
       \"elements\":%d,\"n\":%d,\"order\":%d,\"n1\":%d,\"n2\":%d,\
       \"reduce_s\":%.3f,\"structure_error\":%.3e,\"blocks_symmetric\":%b,\
       \"passivity_clean\":%b,\"certify_clean\":%b,\"fallback_dense\":%d}"
      conductors segments elements mna.Circuit.Mna.n (Sympvl.Realisation.order sp.Sympvl.Sprim.real)
      sp.Sympvl.Sprim.n1 sp.Sympvl.Sprim.n2 reduce_s serr blocks_sym mod23_clean
      clean fallback_dense
    :: !rows;
  (* part 2 — the shipped k-coupled example at equal order: SPRIM must
     be at least as accurate as SyMPVL up to the documented golden
     rtol, and the RLCk round-trip must reproduce the reduced model *)
  let mx =
    Circuit.Mna.auto (Circuit.Parser.parse_file "examples/netlists/peec_coupled.cir")
  in
  let order2 = 6 in
  let freqs = Simulate.Ac.log_freqs ~points:16 1e6 1e10 in
  let sw = Simulate.Ac.sweep mx freqs in
  let err_of eng =
    let model = Sympvl.Rom.reduce ~order:order2 eng mx in
    Simulate.Ac.max_rel_error sw
      (Simulate.Ac.model_sweep (Sympvl.Rom.eval model) freqs)
  in
  let e_sprim = err_of `Sprim and e_sympvl = err_of `Sympvl in
  let spx = Sympvl.Sprim.reduce ~order:order2 mx in
  let nl_rt, _ = Synth.Rlck.synthesize ~port_names:mx.Circuit.Mna.port_names spx in
  let m_rt = Circuit.Mna.assemble nl_rt in
  let rt_err =
    Simulate.Ac.max_rel_error
      (Simulate.Ac.sweep m_rt freqs)
      (Simulate.Ac.model_sweep (Sympvl.Realisation.eval spx.Sympvl.Sprim.real) freqs)
  in
  let rtol = Sympvl.Rom.golden_rtol `Sprim in
  Printf.printf
    "peec_coupled at order %d: sprim %.3e vs sympvl %.3e; RLCk round-trip %.3e\n"
    order2 e_sprim e_sympvl rt_err;
  rows :=
    Printf.sprintf
      "{\"workload\":\"peec_coupled\",\"order\":%d,\"err_sprim\":%.3e,\
       \"err_sympvl\":%.3e,\"roundtrip_err\":%.3e,\"gate_rtol\":%.1e}"
      order2 e_sprim e_sympvl rt_err rtol
    :: !rows;
  json_out "sprim" ("[\n" ^ String.concat ",\n" (List.rev !rows) ^ "\n]\n");
  (* hard gates *)
  if elements < 10_000 then begin
    Printf.printf "FAIL: generator instance too small (%d elements)\n" elements;
    exit 1
  end;
  if serr <> 0.0 || not blocks_sym then begin
    Printf.printf "FAIL: reduced blocks lost symmetry (structure error %.3e)\n" serr;
    exit 1
  end;
  if fallback_dense <> 0 then begin
    Printf.printf
      "FAIL: peec_partial fell back to the dense factorisation %d time(s)\n"
      fallback_dense;
    exit 1
  end;
  if not mod23_clean then begin
    Printf.printf
      "FAIL: SPRIM passivity certification (MOD002/MOD003) failed at the \
       MORCIC scale\n";
    exit 1
  end;
  if e_sprim > Float.max e_sympvl rtol then begin
    Printf.printf "FAIL: sprim %.3e worse than sympvl %.3e beyond rtol %.1e\n"
      e_sprim e_sympvl rtol;
    exit 1
  end;
  if rt_err > rtol then begin
    Printf.printf "FAIL: RLCk round-trip deviates %.3e > %.1e\n" rt_err rtol;
    exit 1
  end

let all_experiments =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("tabB", tab_b);
    ("tabC", tab_c);
    ("tabD", tab_d);
    ("tabE", tab_e);
    ("tabF", tab_f);
    ("tabG", tab_g);
    ("tabH", tab_h);
    ("ac", ac_bench);
    ("pencil", pencil_bench);
    ("certify", certify_bench);
    ("ordering", ordering_study);
    ("factor", factor_bench);
    ("kernels", kernels);
    ("obs", obs_gate);
    ("serve", serve_bench);
    ("sprim", sprim_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* flag parsing: --quick, --csv, --jobs N / --jobs=N (the pooled AC
     engine job count; every fig/tab section's exact sweeps use it) *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--csv" :: rest ->
      csv_dir := Some "bench/out";
      parse acc rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j -> Parallel.set_jobs j
      | None -> Printf.eprintf "bad --jobs value %s\n" n);
      parse acc rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      (match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
      | Some j -> Parallel.set_jobs j
      | None -> Printf.eprintf "bad --jobs value %s\n" a);
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let selected =
    match args with
    | [] -> all_experiments
    | names ->
      List.filter_map
        (fun n ->
          match List.assoc_opt n all_experiments with
          | Some fn -> Some (n, fn)
          | None ->
            Printf.eprintf "unknown experiment %s (have: %s)\n" n
              (String.concat ", " (List.map fst all_experiments));
            None)
        names
  in
  let t0 = Obs.now () in
  List.iter (fun (_, fn) -> fn ()) selected;
  Printf.printf "\ntotal bench wall time: %.1fs\n" (Obs.now () -. t0)
