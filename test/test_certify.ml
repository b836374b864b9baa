(* Certification-pass tests (MOD001–MOD009).

   1. Narrow-band acceptance: a hand-built near-passive model whose
      only passivity violation is a band ~ω₀/500 wide, placed between
      the points of the legacy 16-point sampling grid. The Hamiltonian
      test on the Certify pencil must locate the band;
      the deprecated grid sampler must come back empty — that is the
      whole argument for replacing it.
   2. Cross-engine adapter: every engine in Rom.all is routed through
      the one Certify.state_space adapter and the resulting descriptor
      realisation must reproduce Rom.eval on the imaginary axis.
   3. Structural findings: Certify.structural (MOD002 then MOD001, the
      pair `symor reduce` prints for every engine) is exactly what
      Certify.run reports under those codes, and MOD001 still sees
      every pole of a realisation that also has a pole at DC.
   4. qcheck property: a lint-clean all-positive RC netlist reduced at
      shift 0 certifies structurally passive (MOD002) with no MOD001 /
      MOD003 complaint, for every supported engine.
   5. Registry: the codes Certify emits are exactly the documented
      Analysis.Mod_rules table.
   6. Spans: a traced run puts MOD003, MOD004, MOD005/MOD006 and
      MOD009 each in its own Obs span. *)

module Rom = Sympvl.Rom
module Certify = Sympvl.Certify
module Model = Sympvl.Model
module H = Linalg.Hamiltonian
module Mat = Linalg.Mat
module D = Circuit.Diagnostic

let find_path cands =
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let mna_of base =
  Circuit.Mna.auto
    (Circuit.Parser.parse_file
       (find_path
          [ "../examples/netlists/" ^ base ^ ".cir"; "examples/netlists/" ^ base ^ ".cir" ]))

(* ------------------------------------------------------------------ *)
(* 1. narrow violation band vs the legacy grid                         *)

(* Z(s) = 1 − αβs/(s² + βs + ω₀²) with α = 2, β = ω₀/500: a passive
   unit resistor in series with a band-stop branch that dips to
   Re Z(jω₀) = 1 − α = −1 over a band of width ≈ ω₀/500 — far narrower
   than any decade-spaced grid step. Realised as Z = bᵀ(G + sC)⁻¹b and
   packed into Model.t via T = G⁻¹C, ρ = G⁻¹b, Δ = Gᵀ (so that
   ρᵀΔ(I + sT)⁻¹ρ = bᵀ(G + sC)⁻¹b exactly). *)
let w0 = 2.0 *. Float.pi *. 3e7

let beta = w0 /. 500.0

let narrow_band_model () =
  let alpha = 2.0 in
  let g =
    Mat.of_arrays
      [| [| 1.0; 0.0; 0.0 |]; [| 0.0; -.beta; -.w0 |]; [| 0.0; w0; 0.0 |] |]
  in
  let c =
    Mat.of_arrays
      [| [| 0.0; 0.0; 0.0 |]; [| 0.0; -1.0; 0.0 |]; [| 0.0; 0.0; -1.0 |] |]
  in
  let b = Mat.of_arrays [| [| 1.0 |]; [| sqrt (alpha *. beta) |]; [| 0.0 |] |] in
  let ginv = Linalg.Lu.factor g in
  {
    Model.t_mat = Linalg.Lu.solve_mat ginv c;
    delta = Mat.transpose g;
    rho = Linalg.Lu.solve_mat ginv b;
    order = 3;
    p = 1;
    shift = 0.0;
    variable = Circuit.Mna.S;
    gain = Circuit.Mna.Unit;
    definite = false;
    deflations = 0;
    look_ahead_steps = 0;
    exhausted = false;
  }

(* the legacy reporting grid: 16 log-spaced points over 1 MHz..10 GHz *)
let legacy_grid =
  Array.init 16 (fun k ->
      2.0 *. Float.pi *. (10.0 ** (6.0 +. (4.0 *. float_of_int k /. 15.0))))

let test_narrow_band () =
  let m = narrow_band_model () in
  (* the realisation is exact: check the construction at a probe point *)
  let z = Model.eval_jw m (0.5 *. w0) in
  let s = Complex.{ re = 0.0; im = 0.5 *. w0 } in
  let den = Complex.add (Complex.mul s s) (Complex.add (Complex.mul { re = beta; im = 0.0 } s) { re = w0 *. w0; im = 0.0 }) in
  let want =
    Complex.sub { re = 1.0; im = 0.0 }
      (Complex.div (Complex.mul { re = 2.0 *. beta; im = 0.0 } s) den)
  in
  let err = Complex.norm (Complex.sub (Linalg.Cmat.get z 0 0) want) in
  Alcotest.(check bool) "hand-built model matches the closed form" true (err < 1e-9);
  (* grid sampling at the legacy reporting density misses the band
     entirely — the reason the band test replaced the grid sampler *)
  Array.iter
    (fun w ->
      let z = Model.eval_jw m w in
      let me = Linalg.Cmat.min_eig_hermitian (Linalg.Cmat.hermitian_part z) in
      let scale = Float.max (Linalg.Cmat.max_abs z) 1e-300 in
      if me < -.1e-9 *. scale then
        Alcotest.failf "legacy grid sees the violation at %g rad/s (λ = %g)" w me)
    legacy_grid;
  (* the Hamiltonian test on the certify adapter's pencil locates it
     exactly *)
  let bands =
    H.violation_bands (Certify.phys_pencil (Certify.state_space (Rom.Sympvl_model m)))
  in
  Alcotest.(check int) "exactly one violation band" 1 (List.length bands);
  let b = List.hd bands in
  Alcotest.(check bool)
    "band contains ω₀" true
    (b.H.w_lo < w0 && w0 < b.H.w_hi);
  Alcotest.(check bool)
    "band is narrow (≲ ω₀/250 wide)" true
    (b.H.w_hi -. b.H.w_lo < w0 /. 250.0);
  Alcotest.(check bool)
    "worst depth ≈ −1" true
    (Float.abs (b.H.lambda_min +. 1.0) < 1e-3)

(* ------------------------------------------------------------------ *)
(* 2. every engine through the one adapter                             *)

(* balanced truncation needs a capacitor on every node — none of the
   shipped examples qualifies, so the BT leg runs on a generated
   all-caps RC ladder *)
let bt_mna () =
  Circuit.Mna.assemble_rc (Circuit.Generators.random_rc ~nodes:8 ~extra_edges:4 ~seed:7 ())

(* (order, band) per engine: AWE at its documented low order on a
   mid-band shift, every other engine at full order *)
let adapter_opts eng (m : Circuit.Mna.t) =
  match eng with
  | `Awe -> (3, Some (1e6, 1e10))
  | _ -> (m.Circuit.Mna.n, None)

let test_adapter_all_engines () =
  let exercised = ref [] in
  let probe (m : Circuit.Mna.t) eng =
    match Rom.supports eng m with
    | Error _ -> ()
    | Ok () ->
      let order, band = adapter_opts eng m in
      let model = Rom.reduce ?band ~order eng m in
      let r = Certify.state_space model in
      Alcotest.(check bool)
        (Rom.name eng ^ ": adapter reports the engine") true
        (r.Certify.engine = eng);
      (* the realisation must reproduce the engine's own eval at
         physical frequencies spanning the band *)
      List.iter
        (fun f ->
          let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
          let ze = Rom.eval model s in
          let zr = H.eval (Certify.phys_pencil r) s in
          let scale = Float.max (Linalg.Cmat.max_abs ze) 1e-300 in
          let err = Linalg.Cmat.dist_max ze zr /. scale in
          if err > 1e-8 then
            Alcotest.failf "%s: adapter eval deviates %.3e at %g Hz" (Rom.name eng)
              err f)
        [ 1e6; 3.1e7; 1e9 ];
      if not (List.mem eng !exercised) then exercised := eng :: !exercised
  in
  (* peec_coupled carries the general-form inductor-current block the
     sprim leg needs *)
  let mnas = [ mna_of "rc_line"; mna_of "lc_tank"; mna_of "peec_coupled"; bt_mna () ] in
  List.iter (fun m -> List.iter (probe m) Rom.all) mnas;
  List.iter
    (fun eng ->
      Alcotest.(check bool)
        (Rom.name eng ^ " exercised through the adapter") true
        (List.mem eng !exercised))
    Rom.all

(* ------------------------------------------------------------------ *)
(* 3. the structural pair: MOD002 then MOD001                          *)

let test_structural_in_run () =
  let check name model mna =
    let mine = Certify.structural (Certify.state_space model) mna in
    Alcotest.(check (list string))
      (name ^ ": MOD002 then MOD001") [ "MOD002"; "MOD001" ]
      (List.map (fun d -> d.D.code) mine);
    let rep = Certify.run ~ctx:(Sympvl.Pencil.create mna) model mna in
    let in_run =
      List.filter (fun d -> d.D.code = "MOD001" || d.D.code = "MOD002") rep.Certify.findings
    in
    Alcotest.(check (list string))
      (name ^ ": run reports the same pair")
      (List.map (Format.asprintf "%a" D.pp) (D.sort mine))
      (List.map (Format.asprintf "%a" D.pp) in_run)
  in
  let rc = mna_of "rc_line" in
  check "rc_line sympvl" (Rom.reduce ~order:6 `Sympvl rc) rc;
  check "rc_line prima" (Rom.reduce ~order:6 `Prima rc) rc;
  (* a shifted and an s²-variable model exercise the augmentation arms *)
  let rl = mna_of "rl_ladder" in
  let shifted = Rom.reduce ~order:4 `Sympvl rl in
  Alcotest.(check bool) "rl_ladder model is shifted" true (Rom.shift shifted <> 0.0);
  check "rl_ladder (shifted)" shifted rl;
  let lc = mna_of "lc_tank" in
  check "lc_tank (s², ×s gain)" (Rom.reduce ~order:3 `Sympvl lc) lc;
  let peec = mna_of "peec_coupled" in
  check "peec_coupled sprim" (Rom.reduce ~order:8 `Sprim peec) peec

(* the package model reduced about a band shift (its G is singular, so
   the realisation has poles at DC) has right-half-plane poles at
   ~3e10 that MOD001 must see, and AWE's modal realisation has exactly
   one finite pole per state *)
let test_structural_dc_pole () =
  let mna =
    Circuit.Mna.assemble (Circuit.Generators.package_model ~pins:16 ~signal_pins:8 ~sections:4 ())
  in
  let model = Rom.reduce ~band:(1e7, 2e10) ~order:80 `Sympvl mna in
  (match model with
  | Rom.Sympvl_model m ->
    Alcotest.(check bool) "the model has a pole beyond Re = 1e10" true
      (Array.exists (fun p -> p.Complex.re > 1e10) (Model.poles m))
  | _ -> ());
  let mod001 rom m =
    List.find (fun d -> d.D.code = "MOD001") (Certify.structural (Certify.state_space rom) m)
  in
  Alcotest.(check bool) "MOD001 flags them" true ((mod001 model mna).D.severity <> D.Info);
  let rl = mna_of "rl_ladder" in
  Alcotest.(check string) "AWE order 4: four finite poles"
    "awe: all 4 finite poles in the closed left half-plane"
    (mod001 (Rom.reduce ~order:4 `Awe rl) rl).D.message

(* ------------------------------------------------------------------ *)
(* 4. property: clean RC at shift 0 certifies passive on every engine  *)

let prop_clean_rc_certifies =
  QCheck.Test.make ~count:12
    ~name:"lint-clean RC, shift 0 => MOD002 certified, no MOD001/MOD003"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nl = Circuit.Generators.random_rc ~nodes:10 ~extra_edges:5 ~seed () in
      let clean =
        List.for_all
          (fun d -> d.D.severity <> D.Error)
          (Analysis.Lint.run nl)
      in
      QCheck.assume clean;
      let mna = Circuit.Mna.assemble_rc nl in
      let ctx = Sympvl.Pencil.create mna in
      List.for_all
        (fun eng ->
          match Rom.supports eng mna with
          | Error _ -> true
          | Ok () -> (
            let order, band = adapter_opts eng mna in
            match Rom.reduce ~ctx ?band ~order eng mna with
            | exception (Sympvl.Awe.Breakdown _ | Sympvl.Mpvl.Breakdown _) -> true
            | model ->
              if Rom.shift model <> 0.0 then true
              else begin
                let rep = Certify.run ~ctx model mna in
                let bad =
                  List.filter
                    (fun d ->
                      d.D.severity <> D.Info
                      && (d.D.code = "MOD001" || d.D.code = "MOD002"
                        || d.D.code = "MOD003"))
                    rep.Certify.findings
                in
                let certified =
                  List.exists
                    (fun d ->
                      d.D.code = "MOD002" && d.D.severity = D.Info
                      && d.D.line = None)
                    rep.Certify.findings
                in
                if bad <> [] || not certified then begin
                  List.iter
                    (fun d ->
                      Printf.printf "[certify] %s %s: %s\n" (Rom.name eng) d.D.code
                        d.D.message)
                    bad;
                  false
                end
                else true
              end))
        Rom.all)

(* ------------------------------------------------------------------ *)
(* 5. registry cross-check                                             *)

let test_registry () =
  let codes = List.map (fun (c, _, _) -> c) Analysis.Mod_rules.rules in
  Alcotest.(check (list string))
    "registry is MOD001..MOD009 in order"
    (List.init 9 (fun i -> Printf.sprintf "MOD%03d" (i + 1)))
    codes;
  (* every code the pass emits is documented *)
  let mna = mna_of "coupled_lines" in
  let ctx = Sympvl.Pencil.create mna in
  let emitted = ref [] in
  List.iter
    (fun eng ->
      match Rom.supports eng mna with
      | Error _ -> ()
      | Ok () ->
        let order, band = adapter_opts eng mna in
        let model = Rom.reduce ~ctx ?band ~order eng mna in
        let rep = Certify.run ~ctx model mna in
        List.iter (fun d -> emitted := d.D.code :: !emitted) rep.Certify.findings)
    Rom.all;
  Alcotest.(check bool) "certify emitted findings" true (!emitted <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c ^ " is in the Mod_rules registry") true
        (Option.is_some (Analysis.Mod_rules.find c)))
    !emitted

(* ------------------------------------------------------------------ *)
(* 6. per-rule spans                                                   *)

let test_rule_spans () =
  let mna = mna_of "coupled_lines" in
  let ctx = Sympvl.Pencil.create mna in
  let model = Rom.reduce ~ctx ~order:8 `Sympvl mna in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      ignore (Certify.run ~ctx model mna);
      let names = List.map (fun st -> st.Obs.span_name) (Obs.span_stats ()) in
      List.iter
        (fun name -> Alcotest.(check bool) (name ^ " recorded") true (List.mem name names))
        [ "certify.run"; "certify.hamiltonian"; "certify.reciprocity"; "certify.moments";
          "certify.drift" ])

let () =
  Alcotest.run "certify"
    [
      ( "narrow band",
        [ Alcotest.test_case "found by Hamiltonian, missed by grid" `Quick test_narrow_band ] );
      ( "adapter",
        [ Alcotest.test_case "all engines through state_space" `Quick test_adapter_all_engines ] );
      ( "structural",
        [
          Alcotest.test_case "run opens with the structural pair" `Quick
            test_structural_in_run;
          Alcotest.test_case "poles beside a DC pole" `Quick test_structural_dc_pole;
        ] );
      ("properties", [ Qtest.to_alcotest prop_clean_rc_certifies ]);
      ("registry", [ Alcotest.test_case "codes documented" `Quick test_registry ]);
      ("spans", [ Alcotest.test_case "one span per rule group" `Quick test_rule_spans ]);
    ]
