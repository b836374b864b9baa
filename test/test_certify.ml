(* Certification-pass tests (MOD001–MOD009).

   1. Narrow-band acceptance: a hand-built near-passive model whose
      only passivity violation is a band ~ω₀/500 wide, placed between
      the points of the legacy 16-point sampling grid. The Hamiltonian
      test (Certify / Stability.passivity_bands) must locate the band;
      the deprecated grid sampler must come back empty — that is the
      whole argument for replacing it.
   2. Cross-engine adapter: every engine in Rom.all is routed through
      the one Certify.state_space adapter and the resulting descriptor
      realisation must reproduce Rom.eval on the imaginary axis.
   3. Pin: Stability.model_pencil (the inlined SyMPVL arm) equals the
      pencil Certify builds for the same model.
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
module Stability = Sympvl.Stability
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
  (* the Hamiltonian test, through the same pencil certify uses,
     locates it exactly *)
  let bands = Stability.passivity_bands m in
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
    (Float.abs (b.H.lambda_min +. 1.0) < 1e-3);
  (* and the certify adapter reports the same band on the same model *)
  let phys = Certify.phys_pencil (Certify.state_space (Rom.Sympvl_model m)) in
  match H.violation_bands phys with
  | [ b' ] ->
    Alcotest.(check bool)
      "certify band agrees with Stability.passivity_bands" true
      (Float.abs (b'.H.w_worst -. b.H.w_worst) < 1e-6 *. w0)
  | bs -> Alcotest.failf "certify found %d bands, expected 1" (List.length bs)

(* ------------------------------------------------------------------ *)
(* 2. every engine through the one adapter                             *)

(* balanced truncation needs a capacitor on every node — none of the
   shipped examples qualifies, so the BT leg runs on a generated
   all-caps RC ladder *)
let bt_mna () =
  Circuit.Mna.assemble_rc (Circuit.Generators.random_rc ~nodes:8 ~extra_edges:4 ~seed:7 ())

let adapter_opts eng (m : Circuit.Mna.t) =
  match eng with
  | `Awe -> { (Rom.default ~order:3) with Rom.band = Some (1e6, 1e10) }
  | _ -> Rom.default ~order:m.Circuit.Mna.n

let test_adapter_all_engines () =
  let exercised = ref [] in
  let probe (m : Circuit.Mna.t) eng =
    match Rom.supports eng m with
    | Error _ -> ()
    | Ok () ->
      let opts = adapter_opts eng m in
      let model = Rom.reduce ~opts ~order:opts.Rom.order eng m in
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
          let zr = Certify.eval r s in
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
(* 3. Stability.model_pencil ≡ the certify adapter                     *)

let test_pencil_pin () =
  let check name (m : Model.t) =
    let a = Stability.model_pencil m in
    let b = Certify.phys_pencil (Certify.state_space (Rom.Sympvl_model m)) in
    let eq what x y =
      Alcotest.(check (float 0.0)) (name ^ ": " ^ what) 0.0 (Mat.dist_max x y)
    in
    eq "a0" a.H.a0 b.H.a0;
    eq "a1" a.H.a1 b.H.a1;
    eq "b" a.H.b b.H.b;
    eq "c" a.H.c b.H.c
  in
  check "narrow-band model" (narrow_band_model ());
  (match Sympvl.Reduce.mna ~order:6 (mna_of "rc_line") with
  | m -> check "rc_line" m);
  (* a shifted and an s²-variable model exercise the augmentation arms *)
  (match Sympvl.Reduce.mna ~order:4 (mna_of "rl_ladder") with
  | m ->
    Alcotest.(check bool) "rl_ladder model is shifted" true (m.Model.shift <> 0.0);
    check "rl_ladder (shifted)" m);
  match Sympvl.Reduce.mna ~order:3 (mna_of "lc_tank") with
  | m ->
    Alcotest.(check bool)
      "lc_tank model is s²-variable" true
      (m.Model.variable = Circuit.Mna.S_squared);
    check "lc_tank (s², ×s gain)" m

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
            let opts = adapter_opts eng mna in
            match Rom.reduce ~ctx ~opts ~order:opts.Rom.order eng mna with
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
        let opts = adapter_opts eng mna in
        let model = Rom.reduce ~ctx ~opts ~order:opts.Rom.order eng mna in
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
      ( "pencil pin",
        [ Alcotest.test_case "Stability.model_pencil = certify" `Quick test_pencil_pin ] );
      ("properties", [ Qtest.to_alcotest prop_clean_rc_certifies ]);
      ("registry", [ Alcotest.test_case "codes documented" `Quick test_registry ]);
      ("spans", [ Alcotest.test_case "one span per rule group" `Quick test_rule_spans ]);
    ]
