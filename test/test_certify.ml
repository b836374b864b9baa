(* Certification-pass tests (MOD001–MOD010).

   1. Narrow-band acceptance: a hand-built near-passive model whose
      only passivity violation is a band ~ω₀/500 wide, placed between
      the points of the legacy 16-point sampling grid. The Hamiltonian
      test on the Certify pencil must locate the band;
      the deprecated grid sampler must come back empty — that is the
      whole argument for replacing it.
   2. One realisation per model: every engine's Rom.realisation,
      augmented to the physical pencil, reproduces Rom.eval on the
      imaginary axis; Realisation.poles matches the deleted per-engine
      pole functions (committed fixture) on every example × engine; and
      MOD001 sees all four poles of the lossless lc_tank.
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
      MOD009 each in its own Obs span.
   7. Factor residual (MOD010): info on a clean reduction and on every
      example × engine, skipped without a shared context, info when the
      pencil is singular at the model's shift.
   8. A violation band covering the whole axis (golden/certify_rlck5.cir,
      PRIMA order 8) is refined at finite sample points around the
      frequency scale and reported (MOD003/MOD007) — its samples were
      all NaN and the eigensolver's failure escaped as an uncaught
      exception; that failure is now the typed Eig_sym.No_convergence,
      raised on a non-finite matrix.
   9. Exact moments: Moments.exact and Moments.relative_errors_scaled
      equal the column-copy oracle (Moments_reference) bit for bit on
      every shipped example (skyline), a 4 096-unknown RC grid
      (supernodal), peec_partial at s0 = 0 (the KKT congruence), a
      pencil that takes the dense fallback and a dense B whose columns
      sum many terms.
  10. MOD003 from the modal form: whenever the term-by-term rule
      passes on a generated RC (SyMPVL at s0 = 0 and at a mid-band
      shift, BT), RL or LC model, the Hamiltonian test finds no band;
      the shipped examples take the modal path under SyMPVL and the
      Hamiltonian one under PRIMA.
  11. Hand-built modal models on which the rule must decline (origin·λ
      > 1 at unit gain, a finite negative λ under the ×s gain, the s²
      variable at unit gain) while the Hamiltonian test locates the
      band, and the pole-at-infinity cutoff on both sides.
  12. MOD006 on ports shorted to ground by an inductor: the exact DC
      value is roundoff, and the check is relative to the model's own
      |Z| scale. *)

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
  Model.make ~t_mat:(Linalg.Lu.solve_mat ginv c) ~delta:(Mat.transpose g)
    ~rho:(Linalg.Lu.solve_mat ginv b) ~shift:0.0 ~variable:Circuit.Mna.S
    ~gain:Circuit.Mna.Unit ~definite:false ~deflations:0 ~look_ahead_steps:0 ~exhausted:false

(* the legacy reporting grid: 16 log-spaced points over 1 MHz..10 GHz *)
let legacy_grid =
  Array.init 16 (fun k ->
      2.0 *. Float.pi *. (10.0 ** (6.0 +. (4.0 *. float_of_int k /. 15.0))))

let test_narrow_band () =
  let m = narrow_band_model () in
  (* the realisation is exact: check the construction at a probe point *)
  let z = Sympvl.Realisation.eval m.Model.real (Linalg.Cx.im (0.5 *. w0)) in
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
      let z = Sympvl.Realisation.eval m.Model.real (Linalg.Cx.im w) in
      let me = Linalg.Cmat.min_eig_hermitian (Linalg.Cmat.hermitian_part z) in
      let scale = Float.max (Linalg.Cmat.max_abs z) 1e-300 in
      if me < -.1e-9 *. scale then
        Alcotest.failf "legacy grid sees the violation at %g rad/s (λ = %g)" w me)
    legacy_grid;
  (* the Hamiltonian test on the certify adapter's pencil locates it
     exactly *)
  let bands =
    H.violation_bands (Sympvl.Realisation.phys_pencil m.Model.real)
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

(* the deleted per-engine [poles] functions, run before the engines
   moved to one realisation: golden/rom_poles.bits holds
   "<example> <engine> <order> <count> <re> <im> ..." as %h hex floats
   (PRIMA's mapped from the pencil variable to physical s) *)
let read_pole_fixture () =
  let ic =
    open_in (find_path [ "golden/rom_poles.bits"; "test/golden/rom_poles.bits" ])
  in
  let rows = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | base :: eng :: order :: _count :: vals ->
         let v = Array.of_list (List.map float_of_string vals) in
         let poles =
           Array.init (Array.length v / 2) (fun k -> { Complex.re = v.(2 * k); im = v.((2 * k) + 1) })
         in
         rows := ((base, eng, int_of_string order), poles) :: !rows
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

(* every pole of [want] within [rtol·max|want|] of a distinct pole of [got] *)
let poles_match ~rtol want got =
  let scale = Array.fold_left (fun acc p -> Float.max acc (Complex.norm p)) 1e-300 want in
  let used = Array.make (Array.length got) false in
  Array.length want = Array.length got
  && Array.for_all
       (fun w ->
         let best = ref (-1) in
         Array.iteri
           (fun i g ->
             if (not used.(i))
                && (!best < 0 || Complex.norm (Complex.sub g w) < Complex.norm (Complex.sub got.(!best) w))
             then best := i)
           got;
         !best >= 0
         && begin
              used.(!best) <- true;
              Complex.norm (Complex.sub got.(!best) w) <= rtol *. scale
            end)
       want

let test_adapter_all_engines () =
  let exercised = ref [] in
  let probe (m : Circuit.Mna.t) eng =
    match Rom.supports eng m with
    | Error _ -> ()
    | Ok () ->
      let order, band = adapter_opts eng m in
      let model = Rom.reduce ?band ~order eng m in
      let r = Rom.realisation model in
      (* the physical descriptor pencil the certify rules work on must
         reproduce the engine's eval at frequencies spanning the band *)
      List.iter
        (fun f ->
          let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
          let ze = Rom.eval model s in
          let zr = H.eval (Sympvl.Realisation.phys_pencil r) s in
          let scale = Float.max (Linalg.Cmat.max_abs ze) 1e-300 in
          let err = Linalg.Cmat.dist_max ze zr /. scale in
          if err > 1e-8 then
            Alcotest.failf "%s: realisation pencil deviates %.3e at %g Hz" (Rom.name eng)
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
        (Rom.name eng ^ " exercised through the realisation") true
        (List.mem eng !exercised))
    Rom.all;
  (* one pole path: Realisation.poles against the deleted engine
     functions on every example × engine. Those did not all drop the
     eigenvalues a singular Ĉ pushes to infinity, so fixture poles
     beyond 1e8 times the core frequency scale (in the pencil variable)
     are dropped first. Arnoldi.poles also inverted Ĉ outright, which
     returned garbage where C is singular (lc_tank, rl_ladder): PRIMA
     there is held to the SyMPVL fixture row instead — at order 4 ≥ N
     both are the exact model. *)
  let fixture = read_pole_fixture () in
  let check_row ((base, eng, order), want) =
    let m = if base = "random_rc" then bt_mna () else mna_of base in
    let engine = Option.get (Rom.of_name eng) in
    let band = if engine = `Awe && order = 3 then Some (1e6, 1e10) else None in
    let r = Rom.realisation (Rom.reduce ?band ~order engine m) in
    let want =
      if eng = "prima" && (base = "lc_tank" || base = "rl_ladder") then
        List.assoc (base, "sympvl", 4) fixture
      else want
    in
    let ws = Sympvl.Realisation.freq_scale r in
    let in_var p = if r.Sympvl.Realisation.variable = Circuit.Mna.S then p else Complex.mul p p in
    let want = List.filter (fun p -> Complex.norm (in_var p) <= 1e8 *. ws) (Array.to_list want) in
    let got = Sympvl.Realisation.poles r in
    if not (poles_match ~rtol:1e-6 (Array.of_list want) got) then
      Alcotest.failf "%s %s %d: %d poles, fixture has %d finite (or a pole moved)" base eng
        order (Array.length got) (List.length want)
  in
  List.iter check_row fixture;
  (* MOD001 sees every pole of the lossless tank, all on the axis *)
  let lc = mna_of "lc_tank" in
  List.iter
    (fun eng ->
      let d =
        List.find (fun d -> d.D.code = "MOD001") (Certify.structural (Rom.reduce ~order:4 eng lc) lc)
      in
      Alcotest.(check string)
        (Rom.name eng ^ ": MOD001 on lc_tank")
        (Rom.name eng ^ ": all 4 finite poles in the closed left half-plane")
        d.D.message;
      Alcotest.(check bool) "info" true (d.D.severity = D.Info))
    [ `Sympvl; `Mpvl; `Prima ]

(* ------------------------------------------------------------------ *)
(* 3. the structural pair: MOD002 then MOD001                          *)

let test_structural_in_run () =
  let check name model mna =
    let mine = Certify.structural model mna in
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

(* MOD009: a zero pivot in an exact jω drift sample is a resonance only
   on the LC form (σ = s²); on a lossy RLC pencil (peec_partial below
   4 096 unknowns: the unpivoted skyline factor breaks down at every jω
   point) the skipped check is a warning naming the unknown *)
let test_drift_zero_pivot () =
  let mod009 model mna =
    List.filter
      (fun d -> d.D.code = "MOD009")
      (Certify.run ~ctx:(Sympvl.Pencil.create mna) model mna).Certify.findings
  in
  let has d sub =
    let n = String.length sub in
    let m = d.D.message in
    let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
    go 0
  in
  let lc = mna_of "lc_tank" in
  (match mod009 (Rom.reduce ~order:3 `Sympvl lc) lc with
  | [ d ] ->
    Alcotest.(check bool) "lc_tank: info" true (d.D.severity = D.Info);
    Alcotest.(check bool) "lc_tank: resonances" true (has d "lossless resonances")
  | ds -> Alcotest.failf "lc_tank: %d MOD009 findings" (List.length ds));
  let peec = Circuit.Mna.auto (Circuit.Generators.peec_partial ~conductors:2 ~segments:4 ()) in
  Alcotest.(check bool) "peec_partial: general form" true
    (peec.Circuit.Mna.variable = Circuit.Mna.S);
  match mod009 (Rom.reduce ~order:4 `Sprim peec) peec with
  | [ d ] ->
    Alcotest.(check bool) "peec_partial: warning" true (d.D.severity = D.Warning);
    Alcotest.(check bool) "peec_partial: names the pivot and its unknown" true
      (has d "4 of 4 drift samples met a zero pivot" && has d (Circuit.Mna.unknown_label peec 1))
  | ds ->
    Alcotest.failf "peec_partial: %d MOD009 findings: %s" (List.length ds)
      (String.concat "; " (List.map (fun d -> d.D.message) ds))

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
      (Array.exists (fun p -> p.Complex.re > 1e10) (Sympvl.Realisation.poles m.Model.real))
  | _ -> ());
  let mod001 rom m =
    List.find (fun d -> d.D.code = "MOD001") (Certify.structural rom m)
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
    "registry is MOD001..MOD010 in order"
    (List.init 10 (fun i -> Printf.sprintf "MOD%03d" (i + 1)))
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

(* ------------------------------------------------------------------ *)
(* 7. MOD010: backward residual of the model's factor                  *)

let mod010 rep = List.filter (fun d -> d.D.code = "MOD010") rep.Certify.findings

let test_residual_clean () =
  let mna =
    Circuit.Mna.auto
      (Circuit.Parser.parse_string "R1 1 2 10\nC1 1 0 1p\nR2 2 0 10\nC2 2 0 1p\n.port in 1\n")
  in
  let ctx = Sympvl.Pencil.create mna in
  let model = Rom.reduce ~ctx ~order:4 `Sympvl mna in
  let rep = Certify.run ~ctx model mna in
  List.iter
    (fun d -> if d.D.severity <> D.Info then Alcotest.failf "not clean: %a" D.pp d)
    rep.Certify.findings;
  Alcotest.(check int) "one MOD010 finding" 1 (List.length (mod010 rep));
  Alcotest.(check int) "skipped without a context" 0
    (List.length (mod010 (Certify.run model mna)))

let test_residual_examples () =
  List.iter
    (fun base ->
      let mna = mna_of base in
      List.iter
        (fun eng ->
          match Rom.supports eng mna with
          | Error _ -> ()
          | Ok () -> (
            let order, band = adapter_opts eng mna in
            let ctx = Sympvl.Pencil.create mna in
            let model = Rom.reduce ~ctx ?band ~order eng mna in
            match mod010 (Certify.run ~ctx ?drift_band:band model mna) with
            | [ d ] when d.D.severity = D.Info -> ()
            | ds ->
              Alcotest.failf "%s/%s: %s" base (Rom.name eng)
                (String.concat "; " (List.map (Format.asprintf "%a" D.pp) ds))))
        Rom.all)
    [ "coupled_lines"; "lc_tank"; "peec_coupled"; "rc_line"; "rl_ladder" ]

(* node 3 hangs on capacitors only, so G is singular at DC: a model
   expanded at s0 = 0 has no real factor to probe *)
let test_residual_singular () =
  let mna =
    Circuit.Mna.auto
      (Circuit.Parser.parse_string
         "R1 1 0 10\nR2 1 2 5\nC1 1 0 1p\nC2 2 0 1p\nC3 3 0 1p\nC4 2 3 1p\n.port in 1\n")
  in
  let ctx = Sympvl.Pencil.create mna in
  match mod010 (Certify.run ~ctx (Rom.Sympvl_model (narrow_band_model ())) mna) with
  | [ d ] ->
    Alcotest.(check bool) "info" true (d.D.severity = D.Info);
    Alcotest.(check string) "skipped"
      "sympvl: pencil singular at the expansion point — residual probe skipped" d.D.message
  | ds -> Alcotest.failf "%d MOD010 findings" (List.length ds)

(* ------------------------------------------------------------------ *)
(* 8. a whole-axis violation band                                      *)

let test_whole_axis_band () =
  let mna =
    Circuit.Mna.auto
      (Circuit.Parser.parse_file
         (find_path [ "golden/certify_rlck5.cir"; "test/golden/certify_rlck5.cir" ]))
  in
  let ctx = Sympvl.Pencil.create mna in
  let model = Rom.reduce ~ctx ~order:8 `Prima mna in
  let rep = Certify.run ~ctx model mna in
  (match rep.Certify.bands with
  | [ b ] ->
    Alcotest.(check (float 0.0)) "from DC" 0.0 b.H.w_lo;
    Alcotest.(check bool) "to infinity" true (b.H.w_hi = infinity);
    Alcotest.(check bool) "finite worst point" true
      (Float.is_finite b.H.w_worst && b.H.w_worst > 0.0 && Float.is_finite b.H.lambda_min);
    Alcotest.(check bool) "a violation" true (b.H.lambda_min < 0.0)
  | bs -> Alcotest.failf "%d bands" (List.length bs));
  let codes sev =
    List.filter_map
      (fun d -> if d.D.severity = sev then Some d.D.code else None)
      rep.Certify.findings
  in
  Alcotest.(check bool) "MOD003 and MOD007 warnings" true
    (List.mem "MOD003" (codes D.Warning) && List.mem "MOD007" (codes D.Warning));
  let nan = Mat.init 3 3 (fun _ _ -> Float.nan) in
  Alcotest.(check bool) "non-finite input raises No_convergence" true
    (match Linalg.Eig_sym.values nan with
    | _ -> false
    | exception Linalg.Eig_sym.No_convergence -> true)

(* ------------------------------------------------------------------ *)
(* 9. exact moments against the column-copy oracle                     *)

let bits_equal (a : Mat.t array) (b : Mat.t array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Mat.t) (y : Mat.t) ->
         x.Mat.rows = y.Mat.rows && x.Mat.cols = y.Mat.cols
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              x.Mat.a y.Mat.a)
       a b

(* [Ok] moments or the [Singular] row, from either implementation *)
let moments_or_row f = match f () with m -> Ok m | exception Sympvl.Factor.Singular i -> Error i

let check_moments name ?ctx ~shift mna =
  let got = moments_or_row (fun () -> Sympvl.Moments.exact ?ctx ~shift mna 6) in
  let want = moments_or_row (fun () -> Moments_reference.exact ?ctx ~shift mna 6) in
  match (got, want) with
  | Ok g, Ok w ->
    if not (bits_equal g w) then Alcotest.failf "%s at s0 = %g: moments differ from the oracle" name shift
  | Error i, Error j -> Alcotest.(check int) (name ^ ": same singular row") j i
  | _ -> Alcotest.failf "%s at s0 = %g: one side raised Singular" name shift

let factor_kind ctx ~shift = (Sympvl.Pencil.factor ctx ~shift).Sympvl.Factor.kind

let test_moments_oracle () =
  List.iter
    (fun base ->
      let mna = mna_of base in
      let ctx = Sympvl.Pencil.create mna in
      let model = Rom.reduce ~ctx ~order:6 `Sympvl mna in
      check_moments base ~ctx ~shift:0.0 mna;
      check_moments base ~ctx ~shift:(Rom.shift model) mna;
      (* the general form at s0 = 0 takes the supernodal KKT congruence *)
      if mna.Circuit.Mna.n_nodes = mna.Circuit.Mna.n then
        Alcotest.(check bool) (base ^ ": skyline") true
          (factor_kind ctx ~shift:(Rom.shift model) = `Skyline);
      match model with
      | Rom.Sympvl_model m ->
        let got = Sympvl.Moments.relative_errors_scaled ~ctx m mna 8 in
        let want = Moments_reference.relative_errors_scaled ~ctx m mna 8 in
        if not (Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) got want)
        then Alcotest.failf "%s: scaled moment errors differ from the oracle" base
      | _ -> ())
    [ "coupled_lines"; "lc_tank"; "peec_coupled"; "rc_line"; "rl_ladder" ];
  (* supernodal: 64 × 64 = 4 096 unknowns *)
  let grid = Circuit.Mna.assemble_rc (Circuit.Generators.rc_grid ~pitch_pads:16 ~rows:64 ~cols:64 ()) in
  let ctx = Sympvl.Pencil.create grid in
  check_moments "rc_grid" ~ctx ~shift:0.0 grid;
  Alcotest.(check bool) "rc_grid: supernodal" true (factor_kind ctx ~shift:0.0 = `Supernodal);
  (* the general form at s0 = 0: the augmented-KKT congruence *)
  let peec = Circuit.Mna.auto (Circuit.Generators.peec_partial ~conductors:2 ~segments:4 ()) in
  Alcotest.(check bool) "peec_partial: general form" true
    (peec.Circuit.Mna.n_nodes < peec.Circuit.Mna.n);
  check_moments "peec_partial" ~shift:0.0 peec;
  (* a zero leading pivot under every ordering: the dense fallback *)
  let g = Sparse.Csr.of_dense (Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |]) in
  let c = Sparse.Csr.of_dense (Mat.of_arrays [| [| 2.0; 0.5 |]; [| 0.5; 1.0 |] |]) in
  let dense =
    {
      Circuit.Mna.n = 2;
      n_nodes = 2;
      g;
      c;
      b = Mat.of_arrays [| [| 1.0; 0.3 |]; [| 0.7; -1.1 |] |];
      port_names = [| "a"; "b" |];
      gain = Circuit.Mna.Unit;
      variable = Circuit.Mna.S;
      spd = false;
    }
  in
  let ctx = Sympvl.Pencil.of_matrices g c in
  Alcotest.(check bool) "dense fallback" true (factor_kind ctx ~shift:0.0 = `Dense);
  check_moments "dense fallback" ~ctx ~shift:0.0 dense;
  (* a dense B: BᵀX sums every row of a column, so the order counts *)
  let rc = mna_of "rc_line" in
  let rng = Random.State.make [| 3 |] in
  let b = Mat.init rc.Circuit.Mna.n 2 (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
  check_moments "dense B" ~ctx:(Sympvl.Pencil.create rc) ~shift:0.0 { rc with Circuit.Mna.b }

(* ------------------------------------------------------------------ *)
(* 10. the modal rule never passes a model with a violation band       *)

let mod003 rep = List.find (fun d -> d.D.code = "MOD003") rep.Certify.findings

(* a random ladder of [sections] series elements [series] with a shunt
   [shunt] at every node, port at its head *)
let ladder rng ~sections ~series ~shunt =
  let nl = Circuit.Netlist.create () in
  let f lo hi = lo *. ((hi /. lo) ** Random.State.float rng 1.0) in
  let node k = Circuit.Netlist.node nl (Printf.sprintf "n%d" k) in
  for k = 0 to sections - 1 do
    series nl (node k) (node (k + 1)) f;
    shunt nl (node (k + 1)) 0 f
  done;
  Circuit.Netlist.add_port nl "in" (node 0);
  nl

let rl_net rng =
  ladder rng ~sections:(2 + Random.State.int rng 5)
    ~series:(fun nl a b f -> Circuit.Netlist.add_resistor nl a b (f 1.0 1e3))
    ~shunt:(fun nl a b f -> Circuit.Netlist.add_inductor nl a b (f 1e-10 1e-7))

let lc_net rng =
  ladder rng ~sections:(2 + Random.State.int rng 5)
    ~series:(fun nl a b f -> Circuit.Netlist.add_inductor nl a b (f 1e-10 1e-7))
    ~shunt:(fun nl a b f ->
      Circuit.Netlist.add_capacitor nl a b (f 1e-13 1e-10);
      Circuit.Netlist.add_inductor nl a b (f 1e-8 1e-6))

let prop_modal_rule_sound =
  QCheck.Test.make ~count:15
    ~name:"modal MOD003 rule passes => Hamiltonian finds no band; most draws modal"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nl = Circuit.Generators.random_rc ~nodes:10 ~extra_edges:5 ~seed () in
      QCheck.assume (List.for_all (fun d -> d.D.severity <> D.Error) (Analysis.Lint.run nl));
      let rc = Circuit.Mna.assemble_rc nl in
      let ctx = Sympvl.Pencil.create rc in
      let base = Rom.reduce ~ctx ~shift:0.0 ~order:6 `Sympvl rc in
      let mid = Sympvl.Realisation.freq_scale (Rom.realisation base) in
      let rng = Random.State.make [| seed |] in
      let rl = Circuit.Mna.auto (rl_net rng) and lc = Circuit.Mna.auto (lc_net rng) in
      let models =
        [
          ("sympvl s0 = 0", base);
          ("sympvl mid-band", Rom.reduce ~ctx ~shift:mid ~order:6 `Sympvl rc);
          ("bt", Rom.reduce ~order:6 `Bt rc);
          ("sympvl rl", Rom.reduce ~order:4 `Sympvl rl);
          ("sympvl lc", Rom.reduce ~order:4 `Sympvl lc);
        ]
      in
      let modal =
        List.filter
          (fun (name, model) ->
            let r = Rom.realisation model in
            Certify.modal_passive r
            &&
            match H.violation_bands (Sympvl.Realisation.phys_pencil r) with
            | [] -> true
            | bs -> QCheck.Test.fail_reportf "%s: modal rule passed, %d band(s)" name (List.length bs))
          models
      in
      2 * List.length modal >= List.length models
      || QCheck.Test.fail_reportf "only %d of %d models modal" (List.length modal) (List.length models))

let test_examples_take_both_paths () =
  let rc = mna_of "rc_line" in
  let ctx = Sympvl.Pencil.create rc in
  let message eng = (mod003 (Certify.run ~ctx (Rom.reduce ~ctx ~order:8 eng rc) rc)).D.message in
  Alcotest.(check string) "sympvl: modal"
    "sympvl: modal form is nonnegative term by term on the whole imaginary axis (PSD \
     residues, every term's real part >= 0) — no Hamiltonian test needed"
    (message `Sympvl);
  Alcotest.(check string) "prima: Hamiltonian"
    "prima: Hamiltonian test found no passivity violation on the whole imaginary axis (tol \
     1.0e-09)"
    (message `Prima);
  (* the RL and LC examples pass only through the pole-at-infinity
     rule: each carries a term with λ a hair below zero *)
  List.iter
    (fun base ->
      let mna = mna_of base in
      let r = Rom.realisation (Rom.reduce ~order:mna.Circuit.Mna.n `Sympvl mna) in
      (match r.Sympvl.Realisation.form with
      | Sympvl.Realisation.Modal { lambda; _ } ->
        Alcotest.(check bool) (base ^ ": a negative λ") true (Array.exists (fun l -> l < 0.0) lambda)
      | _ -> Alcotest.failf "%s: not modal" base);
      Alcotest.(check bool) (base ^ ": modal rule passes") true (Certify.modal_passive r))
    [ "rc_line"; "rl_ladder"; "lc_tank" ]

(* ------------------------------------------------------------------ *)
(* 11. where the rule must decline                                     *)

(* Z = wᵀ(I + σ·diag λ)⁻¹w about [shift]: a definite model whose modal
   form is exactly (λ, w) *)
let diag_model ?(shift = 0.0) ~variable ~gain lambdas ws =
  let n = Array.length lambdas in
  Model.make ~t_mat:(Mat.diag lambdas) ~delta:(Mat.identity n)
    ~rho:(Mat.of_arrays (Array.map (fun w -> [| w |]) ws))
    ~shift ~variable ~gain ~definite:true ~deflations:0 ~look_ahead_steps:0 ~exhausted:false

let bands_of (m : Model.t) =
  let r = m.Model.real in
  H.violation_bands ~eval:(Sympvl.Realisation.eval r) (Sympvl.Realisation.phys_pencil r)

let test_rule_declines () =
  let modal (m : Model.t) = Certify.modal_passive m.Model.real in
  (* unit gain, origin·λ = 1.5: Re Z = 1 − 0.5/(0.25 + (ωλ)²) < 0 below
     ω = 0.5/λ = 5e8 rad/s *)
  let m = diag_model ~shift:1.5e9 ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Unit [| 0.0; 1e-9 |] [| 1.0; 1.0 |] in
  Alcotest.(check bool) "origin·λ > 1 declines" false (modal m);
  (match bands_of m with
  | [ b ] ->
    Alcotest.(check (float 0.0)) "from DC" 0.0 b.H.w_lo;
    Alcotest.(check bool) "to 5e8 rad/s" true (Float.abs (b.H.w_hi -. 5e8) < 1e-3 *. 5e8)
  | bs -> Alcotest.failf "origin·λ > 1: %d bands" (List.length bs));
  (* the run reports it through the Hamiltonian path *)
  let one_port =
    Circuit.Mna.auto (Circuit.Parser.parse_string "R1 1 0 10\nC1 1 0 1p\n.port in 1\n")
  in
  let rep = Certify.run (Rom.Sympvl_model m) one_port in
  Alcotest.(check bool) "MOD003 warning" true ((mod003 rep).D.severity = D.Warning);
  Alcotest.(check int) "one band reported" 1 (List.length rep.Certify.bands);
  (* ×s gain, one finite negative λ, its pole at 1e5 = 1e5·ws: Re Z =
     ω²/(1 + ω²) − 1e-5·ω²/(1 + 1e-10·ω²) < 0 above ω = √1e5 *)
  let m = diag_model ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Times_s [| 1.0; -1e-5 |] [| 1.0; 1.0 |] in
  Alcotest.(check bool) "finite negative λ declines" false (modal m);
  (match bands_of m with
  | [ b ] ->
    let edge = sqrt 1e5 in
    Alcotest.(check bool) "from its crossing" true (Float.abs (b.H.w_lo -. edge) < 1e-4 *. edge);
    Alcotest.(check bool) "to infinity" true (b.H.w_hi = infinity)
  | bs -> Alcotest.failf "finite negative λ: %d bands" (List.length bs));
  (* its pole at 1e11·ws is the infinity Realisation.poles drops *)
  let m = diag_model ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Times_s [| 1.0; -1e-11 |] [| 1.0; 1e-6 |] in
  Alcotest.(check bool) "negative λ with its pole at 1e11·ws passes" true (modal m);
  Alcotest.(check int) "no pole there" 1 (Array.length (Sympvl.Realisation.poles m.Model.real));
  (* the s² variable at unit gain never passes *)
  let m = diag_model ~variable:Circuit.Mna.S_squared ~gain:Circuit.Mna.Unit [| 1e-18; 4e-18 |] [| 1.0; 1.0 |] in
  Alcotest.(check bool) "s², unit gain declines" false (modal m);
  let m = diag_model ~variable:Circuit.Mna.S_squared ~gain:Circuit.Mna.Times_s [| 1e-18; 4e-18 |] [| 1.0; 1.0 |] in
  Alcotest.(check bool) "s², ×s gain passes" true (modal m)

(* ------------------------------------------------------------------ *)
(* 12. MOD006 on a port shorted by an inductor                         *)

let test_dc_shorted_port () =
  let mod006 file eng order =
    let mna = Circuit.Mna.auto file in
    let ctx = Sympvl.Pencil.create mna in
    let rep = Certify.run ~ctx (Rom.reduce ~ctx ~order eng mna) mna in
    List.find (fun d -> d.D.code = "MOD006") rep.Certify.findings
  in
  let rlck5 =
    Circuit.Parser.parse_file (find_path [ "golden/certify_rlck5.cir"; "test/golden/certify_rlck5.cir" ])
  in
  let one_port =
    Circuit.Parser.parse_string
      "L1 a 0 1n\nR1 a b 10\nC1 b 0 1p\nL2 b c 2n\nC2 c 0 2p\nR2 c 0 50\n.port a a\n"
  in
  List.iter
    (fun (name, file, eng, order) ->
      let d = mod006 file eng order in
      if d.D.severity <> D.Info then Alcotest.failf "%s: %s" name d.D.message)
    [
      ("certify_rlck5 sprim 8", rlck5, `Sprim, 8);
      ("certify_rlck5 sympvl 8", rlck5, `Sympvl, 8);
      ("one shorted port, prima 4", one_port, `Prima, 4);
    ]

let () =
  Alcotest.run "certify"
    [
      ( "narrow band",
        [ Alcotest.test_case "found by Hamiltonian, missed by grid" `Quick test_narrow_band ] );
      ( "adapter",
        [ Alcotest.test_case "all engines through the realisation" `Quick test_adapter_all_engines ] );
      ( "structural",
        [
          Alcotest.test_case "run opens with the structural pair" `Quick
            test_structural_in_run;
          Alcotest.test_case "poles beside a DC pole" `Quick test_structural_dc_pole;
          Alcotest.test_case "drift: a zero pivot is info only on the LC form" `Quick
            test_drift_zero_pivot;
        ] );
      ("properties", [ Qtest.to_alcotest prop_clean_rc_certifies ]);
      ("registry", [ Alcotest.test_case "codes documented" `Quick test_registry ]);
      ("spans", [ Alcotest.test_case "one span per rule group" `Quick test_rule_spans ]);
      ( "residual",
        [
          Alcotest.test_case "clean reduction" `Quick test_residual_clean;
          Alcotest.test_case "every example and engine" `Quick test_residual_examples;
          Alcotest.test_case "singular at the shift" `Quick test_residual_singular;
        ] );
      ("hamiltonian", [ Alcotest.test_case "whole-axis band" `Quick test_whole_axis_band ]);
      ("moments", [ Alcotest.test_case "exact = column-copy oracle bit for bit" `Quick test_moments_oracle ]);
      ( "modal",
        [
          Qtest.to_alcotest prop_modal_rule_sound;
          Alcotest.test_case "examples take the modal and Hamiltonian paths" `Quick
            test_examples_take_both_paths;
          Alcotest.test_case "the rule declines, the Hamiltonian test finds the band" `Quick
            test_rule_declines;
        ] );
      ("dc", [ Alcotest.test_case "DC point of a port shorted by an inductor" `Quick test_dc_shorted_port ]);
    ]
