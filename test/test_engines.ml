(* Cross-engine registry tests.

   1. Shift-policy regression: every pencil-backed engine resolves the
      singular-G automatic shift through the one implementation in
      Sympvl.Pencil, so on a netlist that triggers the retry they must
      all land on exactly the same expansion point.
   2. Cross-engine golden: every example netlist × every registry
      engine either matches the committed exact-AC fixtures on the
      16-point grid within the engine's documented tolerance
      (Rom.golden_rtol), or is skipped for exactly the reason the
      documented support matrix predicts.
   3. qcheck properties: a Pencil.factor cache hit is bitwise
      identical to a cold factorisation of a fresh context at the same
      shift, and Moments.exact through a shared context is bitwise
      identical to the from-scratch path.
   4. Failure contract: a breakdown leaves Pencil as Factor.Singular at
      the original (unpermuted) row, also from factor_with.
   5. Bitwise eval fixture: Rom.eval on every example × engine (plus a
      generated all-caps RC net for BT) at 16 log-spaced frequencies
      reproduces golden/rom_eval.bits — "%h" hex floats written before
      the engines moved to one realisation — bit for bit. The rows of
      the modal realisations (SyMPVL J = I, BT) were re-pinned when
      their eval moved to the pole–residue sum (largest relative move
      1.7e-13, rl_ladder's shifted expansion at 1 MHz; 2.3e-15 elsewhere),
      and the PRIMA, SPRIM and MPVL rows when theirs moved to the
      Hessenberg–triangular forms (361 of 736 lines; largest relative
      move 9.3e-14, rl_ladder PRIMA 4 at 1 kHz). The
      J ≠ I SyMPVL rows did not move: their band-Lanczos T is
      eliminated as it is, with a dense LU's pivots and rounding.
   6. The band and Hessenberg arms of Realisation.eval: a qcheck
      property over lint-clean random RC and RLCk nets (K cards
      included) for PRIMA, SPRIM, MPVL and indefinite SyMPVL, against
      a dense complex LU refined in double-double at 17 points from
      1 kHz to 100 GHz (within 1e-10, or within 4× the plain LU's own
      error or the componentwise bound where a point is too
      ill-conditioned for that); a graded MPVL model that the
      reduction alone gets 6.5e-10 wrong; an exact pole raises
      Cmat.Singular; a zero leading pivot of a nonsingular pencil is
      crossed by the row swap; and a pencil scaled by powers of two
      over 400 binades evaluates like the unscaled one (the
      balancing). *)

module Rom = Sympvl.Rom
module Pencil = Sympvl.Pencil

let find_path cands =
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let netlist_path base =
  find_path [ "../examples/netlists/" ^ base; "examples/netlists/" ^ base ]

let golden_path base =
  find_path [ "golden/" ^ base ^ ".golden"; "test/golden/" ^ base ^ ".golden" ]

let mna_of base =
  Circuit.Mna.auto (Circuit.Parser.parse_file (netlist_path (base ^ ".cir")))

let names = [ "rc_line"; "lc_tank"; "rl_ladder"; "coupled_lines"; "peec_coupled" ]

(* same format as test_golden.ml (each test is its own executable, so
   the 10-line reader is duplicated rather than grown into a library) *)
type entry = { freq : float; row : int; col : int; mag : float; phase : float }

let read_fixture path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%e %d %d %e %e" (fun freq row col mag phase ->
             entries := { freq; row; col; mag; phase } :: !entries)
     done
   with End_of_file -> close_in ic);
  List.rev !entries

(* ------------------------------------------------------------------ *)
(* one shift policy                                                    *)

let test_shift_agreement () =
  (* rl_ladder has a singular G at s0 = 0 (pure L/R ladder), so every
     engine must go through the automatic retry — and since that retry
     lives in exactly one place (Pencil.with_auto_shift), they must
     all report exactly the same shift, bit for bit. *)
  let m = mna_of "rl_ladder" in
  let expected = Pencil.auto_shift m in
  Alcotest.(check bool) "retry shift is nonzero" true (expected > 0.0);
  let model = Sympvl.Reduce.mna ~order:4 m in
  let arn = Sympvl.Arnoldi.reduce ~order:4 m in
  let mp = Sympvl.Mpvl.reduce ~order:4 m in
  Alcotest.(check (float 0.0)) "reduce shift" expected model.Sympvl.Model.shift;
  Alcotest.(check (float 0.0)) "arnoldi shift" expected arn.Sympvl.Realisation.shift;
  Alcotest.(check (float 0.0)) "mpvl shift" expected mp.Sympvl.Mpvl.real.Sympvl.Realisation.shift

(* ------------------------------------------------------------------ *)
(* cross-engine golden                                                 *)

(* the documented support matrix over the shipped examples: AWE cannot
   expand σ = s² pencils; balanced truncation needs the definite RC
   impedance form (and a capacitor on every node — rc_line's input
   node has none); SPRIM needs the general RLC form's inductor-current
   block (rc_line is pure RC, lc_tank reduces in σ = s², rl_ladder in
   the RL susceptance form) *)
let expected_skips =
  [
    ("lc_tank", `Awe);
    ("rc_line", `Bt);
    ("lc_tank", `Bt);
    ("rl_ladder", `Bt);
    ("coupled_lines", `Bt);
    ("peec_coupled", `Bt);
    ("rc_line", `Sprim);
    ("lc_tank", `Sprim);
    ("rl_ladder", `Sprim);
  ]

let engine_opts eng (m : Circuit.Mna.t) =
  match eng with
  | `Awe ->
    (* AWE's documented validity is low order at a mid-band expansion *)
    (3, Some (1e6, 1e10))
  | _ ->
    (* Krylov/BT engines at full order: the model is the exact transfer
       function up to roundoff, so the golden comparison is tight *)
    (m.Circuit.Mna.n, None)

let test_engine_golden base () =
  let m = mna_of base in
  let entries = read_fixture (golden_path base) in
  let scale =
    List.fold_left (fun acc e -> Float.max acc e.mag) 0.0 entries |> Float.max 1e-300
  in
  List.iter
    (fun eng ->
      match Rom.supports eng m with
      | Error _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: skip is documented" base (Rom.name eng))
          true
          (List.mem (base, eng) expected_skips)
      | Ok () ->
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: support is documented" base (Rom.name eng))
          false
          (List.mem (base, eng) expected_skips);
        let order, band = engine_opts eng m in
        let model = Rom.reduce ?band ~order eng m in
        let scalar = Rom.ports model = 1 && Array.length m.Circuit.Mna.port_names > 1 in
        let rtol = Rom.golden_rtol eng in
        List.iter
          (fun e ->
            if not (scalar && (e.row > 0 || e.col > 0)) then begin
              let s = Linalg.Cx.im (2.0 *. Float.pi *. e.freq) in
              let z = Rom.eval model s in
              let got = Linalg.Cmat.get z e.row e.col in
              let want =
                { Complex.re = e.mag *. cos e.phase; im = e.mag *. sin e.phase }
              in
              let err = Complex.norm (Complex.sub got want) in
              let tol = rtol *. Float.max e.mag (1e-3 *. scale) in
              if err > tol then
                Alcotest.failf
                  "%s/%s: Z[%d,%d] at %.6e Hz deviates: got %.10e%+.10ei, fixture \
                   mag=%.10e phase=%.10e (|err| = %.3e > tol %.3e)"
                  base (Rom.name eng) e.row e.col e.freq got.Complex.re got.Complex.im
                  e.mag e.phase err tol
            end)
          entries)
    Rom.all

(* ------------------------------------------------------------------ *)
(* qcheck: cache identity                                              *)

let bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let shifts = [| 0.0; 1.0; 6.2e8; 2.5e10 |]

let prop_cache_hit_bitwise =
  QCheck.Test.make ~count:25 ~name:"factor cache hit bitwise = cold factorisation"
    QCheck.(pair (int_bound 10_000) (int_bound (Array.length shifts - 1)))
    (fun (seed, si) ->
      let nl = Circuit.Generators.random_rc ~nodes:25 ~extra_edges:15 ~seed () in
      let m = Circuit.Mna.assemble_rc nl in
      let shift = shifts.(si) in
      let rhs = Array.init m.Circuit.Mna.n (fun i -> 1.0 +. float_of_int (i mod 5)) in
      let ctx = Pencil.create m in
      let solve (f : Sympvl.Factor.t) =
        let x = Linalg.Vec.create m.Circuit.Mna.n in
        f.Sympvl.Factor.solve (Array.copy rhs) x;
        x
      in
      let x_cold = solve (Pencil.factor ctx ~shift) in
      let x_hit = solve (Pencil.factor ctx ~shift) in
      let x_fresh = solve (Pencil.factor (Pencil.create m) ~shift) in
      bits_eq x_cold x_hit && bits_eq x_cold x_fresh)

let prop_moments_shared_ctx =
  QCheck.Test.make ~count:15 ~name:"Moments.exact via shared ctx = from scratch"
    QCheck.(pair (int_bound 10_000) (int_bound (Array.length shifts - 1)))
    (fun (seed, si) ->
      let nl = Circuit.Generators.random_rc ~nodes:20 ~extra_edges:10 ~seed () in
      let m = Circuit.Mna.assemble_rc nl in
      let shift = shifts.(si) in
      let ctx = Pencil.create m in
      let shared = Sympvl.Moments.exact ~ctx ~shift m 6 in
      let scratch = Sympvl.Moments.exact ~shift m 6 in
      Array.for_all2
        (fun a b ->
          let ok = ref true in
          for i = 0 to a.Linalg.Mat.rows - 1 do
            for j = 0 to a.Linalg.Mat.cols - 1 do
              if
                Int64.bits_of_float (Linalg.Mat.get a i j)
                <> Int64.bits_of_float (Linalg.Mat.get b i j)
              then ok := false
            done
          done;
          !ok)
        shared scratch)

(* a conductance chain numbered out of order, so the planned ordering
   is not the identity; a Jacobian stamp cancels the diagonal of the
   first eliminated unknown, whose pivot is then exactly zero *)
let test_factor_with_original_row () =
  let chain = [| 3; 0; 5; 1; 4; 2 |] in
  let n = Array.length chain in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i 1.0
  done;
  for k = 0 to n - 2 do
    let a = chain.(k) and b = chain.(k + 1) in
    Sparse.Triplet.add tr a a 2.0;
    Sparse.Triplet.add tr b b 2.0;
    Sparse.Triplet.add tr a b (-2.0);
    Sparse.Triplet.add tr b a (-2.0)
  done;
  let g = Sparse.Csr.of_triplet tr and c = Sparse.Csr.identity n in
  let perm =
    match Sympvl.Factor.plan ~nodes:n (Sparse.Csr.add g c) with `Skyline p | `Supernodal p -> p
  in
  let first = perm.(0) in
  Alcotest.(check bool) "first eliminated unknown is not row 0" true (first <> 0);
  let ctx = Pencil.of_matrices g c in
  Pencil.reserve ctx [| (first, first) |];
  let stamp = [| (first, first, -.Sparse.Csr.get g first first) |] in
  match Pencil.factor_with ctx ~shift:0.0 ~extra:stamp with
  | _ -> Alcotest.fail "a zero pivot must raise Factor.Singular"
  | exception Sympvl.Factor.Singular row ->
    Alcotest.(check int) "Singular names the original row" first row

(* ------------------------------------------------------------------ *)
(* bitwise Rom.eval fixture                                            *)

let fixture_cases () =
  List.map (fun base -> (base, mna_of base)) names
  @ [
      ( "random_rc",
        Circuit.Mna.assemble_rc
          (Circuit.Generators.random_rc ~nodes:8 ~extra_edges:4 ~seed:7 ()) );
    ]

(* (order, band) per engine: AWE at 3 on a mid-band shift and at 4 on
   the default one, every other engine at 4 and at full order *)
let fixture_settings eng (m : Circuit.Mna.t) =
  match eng with
  | `Awe -> [ (3, Some (1e6, 1e10)); (4, None) ]
  | _ -> if m.Circuit.Mna.n <= 4 then [ (4, None) ] else [ (4, None); (m.Circuit.Mna.n, None) ]

(* one line per model and frequency: "<example> <engine> <order> <k>"
   then every entry of Z as "%h %h" *)
let eval_fixture_lines () =
  let freqs = Array.init 16 (fun k -> 10.0 ** (6.0 +. (4.0 *. float_of_int k /. 15.0))) in
  let lines = ref [] in
  let emit l = lines := l :: !lines in
  List.iter
    (fun (base, m) ->
      List.iter
        (fun eng ->
          if Rom.supports eng m = Ok () then
            List.iter
              (fun (order, band) ->
                let tag = Printf.sprintf "%s %s %d" base (Rom.name eng) order in
                match Rom.reduce ?band ~order eng m with
                | exception e -> emit (Printf.sprintf "%s raises %s" tag (Printexc.to_string e))
                | model ->
                  Array.iteri
                    (fun k f ->
                      let z = Rom.eval model (Linalg.Cx.im (2.0 *. Float.pi *. f)) in
                      let b = Buffer.create 128 in
                      Buffer.add_string b (Printf.sprintf "%s %d" tag k);
                      for i = 0 to z.Linalg.Cmat.rows - 1 do
                        for j = 0 to z.Linalg.Cmat.cols - 1 do
                          let c = Linalg.Cmat.get z i j in
                          Buffer.add_string b (Printf.sprintf " %h %h" c.Complex.re c.Complex.im)
                        done
                      done;
                      emit (Buffer.contents b))
                    freqs)
              (fixture_settings eng m))
        Rom.all)
    (fixture_cases ());
  List.rev !lines

let test_eval_fixture () =
  let path = find_path [ "golden/rom_eval.bits"; "test/golden/rom_eval.bits" ] in
  let ic = open_in path in
  let want = ref [] in
  (try
     while true do
       want := input_line ic :: !want
     done
   with End_of_file -> close_in ic);
  let want = List.rev !want and got = eval_fixture_lines () in
  Alcotest.(check int) "line count" (List.length want) (List.length got);
  List.iter2
    (fun w g ->
      if w <> g then
        Alcotest.failf "Rom.eval moved:\n  fixture %s\n  now     %s" w g)
    want got

(* ------------------------------------------------------------------ *)
(* Hessenberg–triangular eval                                          *)

module R = Sympvl.Realisation
module Cmat = Linalg.Cmat

let is_band (r : R.t) = match r.R.form with R.Band _ -> true | _ -> false

let is_hess (r : R.t) = match r.R.form with R.Hess _ -> true | _ -> false

let lint_clean nl =
  List.for_all
    (fun d -> d.Circuit.Diagnostic.severity = Circuit.Diagnostic.Info)
    (Analysis.Lint.run nl)

(* [None] when [r]'s eval stays within [rtol] of [want] at every point
   of the 17-point grid; else where it does not *)
let hess_mismatch ~rtol (r : R.t) want =
  Array.to_list Dense_ref.freqs
  |> List.find_map (fun f ->
         let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
         let e = Dense_ref.rel_dist (R.eval r s) (want s) in
         if e > rtol then Some (Printf.sprintf "%.2e relative at %g Hz" e f) else None)

(* The eval against the refined dense LU at the 17 points, relative to
   |Z| floored at 1e-3 of the sweep's largest |Z| (the golden fixtures'
   metric). It must stay within 1e-10, or, at a point too
   ill-conditioned for that, within 4× the plain dense LU's own error
   or within the componentwise bound [Dense_ref.skeel_bound]. A
   normwise-accurate eval of a graded pencil fails this (the MPVL case
   below). Points where the refinement itself does not converge are
   skipped; a zero pivot of the dense LU must stop the eval too *)
let hess_accuracy (r : R.t) =
  let sw = Array.map (fun f -> Linalg.Cx.im (2.0 *. Float.pi *. f)) Dense_ref.freqs in
  let dense =
    Array.map (fun s -> try Some (Dense_ref.eval r s) with Cmat.Singular _ -> None) sw
  in
  let floor =
    1e-3
    *. Array.fold_left
         (fun a z -> match z with Some z -> Float.max a (Cmat.max_abs z) | None -> a)
         1e-300 dense
  in
  Array.to_list (Array.mapi (fun k s -> (k, s)) sw)
  |> List.find_map (fun (k, s) ->
         let f = Dense_ref.freqs.(k) in
         match (dense.(k), try Ok (R.eval r s) with Cmat.Singular i -> Error i) with
         | None, Error _ -> None
         | None, Ok _ ->
           Some (Printf.sprintf "the dense LU meets a zero pivot at %g Hz, the eval does not" f)
         | Some _, Error i -> Some (Printf.sprintf "Singular %d at %g Hz" i f)
         | Some lu, Ok z -> (
           match Dense_ref.refined r s with
           | None -> None
           | Some want ->
             let scale = Float.max (Cmat.max_abs want) floor in
             let e = Cmat.dist_max z want /. scale in
             let e_lu = Cmat.dist_max lu want /. scale in
             let tol =
               Float.max 1e-10 (Float.max (4.0 *. e_lu) (Dense_ref.skeel_bound r s /. scale))
             in
             if e > tol then
               Some
                 (Printf.sprintf
                    "%.2e from the refined LU at %g Hz (the dense LU: %.2e; tolerance %.2e)" e f
                    e_lu tol)
             else None))

let prop_hess_matches_dense =
  QCheck.Test.make ~count:40 ~if_assumptions_fail:(`Fatal, 0.5)
    ~name:"general eval = refined dense LU on random RC/RLCk (prima, sprim, mpvl, sympvl J <> I)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nl =
        if seed mod 2 = 0 then
          Circuit.Generators.random_rc ~ports:(1 + (seed mod 3)) ~nodes:(8 + (seed mod 13))
            ~extra_edges:6 ~seed ()
        else Random_nets.rlck seed
      in
      QCheck.assume (lint_clean nl);
      let m = Circuit.Mna.auto nl in
      List.for_all
        (fun eng ->
          match Rom.supports eng m with
          | Error _ -> true
          | Ok () -> (
            match Rom.reduce ~order:(min m.Circuit.Mna.n 8) eng m with
            | exception Sympvl.Mpvl.Breakdown _ -> true (* a serious MPVL breakdown: no model *)
            | model -> (
              let r = Rom.realisation model in
              match r.R.form with
              | R.Modal _ when eng = `Sympvl -> true
              | R.Modal _ | R.Foster _ -> QCheck.Test.fail_reportf "%s: no general form" (Rom.name eng)
              | R.Band _ | R.Hess _ -> (
                match hess_accuracy r with
                | None -> true
                | Some why -> QCheck.Test.fail_reportf "%s: %s" (Rom.name eng) why))))
        [ `Prima; `Sprim; `Mpvl; `Sympvl ])

(* An MPVL model whose T spans 18 decades: a reduction alone is
   normwise accurate only, 6.5e-10 off at 31.6 GHz where the dense LU
   is 6.4e-15 off and the componentwise bound is 1.2e-12. The
   refinement step brings it to 1e-14 *)
let test_hess_graded () =
  let m = Circuit.Mna.auto (Random_nets.rlck 18235) in
  let r = Rom.realisation (Rom.reduce ~order:(min m.Circuit.Mna.n 8) `Mpvl m) in
  Alcotest.(check bool) "reduced form" true (is_hess r);
  match hess_accuracy r with None -> () | Some why -> Alcotest.failf "mpvl: %s" why

let raises_singular r s =
  match R.eval r (Linalg.Cx.re s) with exception Cmat.Singular _ -> true | _ -> false

(* Exact poles, on both kinds of form. a0 = [[2, 1], [1, 2]] with two
   ports is eliminated as it is: a0 + σI meets an exactly zero last
   pivot at σ = −1 and σ = −3. g = [[2, 0, 1], [0, 2, 0], [1, 0, 2]]
   with one port is reduced, and every rotation of its reduction is an
   exact signed swap, so the reduced pencil is singular where g + σI
   is: g·x + s·x has poles at s = −1, −2, −3 and x + s·g·x at
   s = −1/2. Both s = −3 (above ‖g‖/‖I‖ = 2) and s = −1/2 (at
   ‖I‖/‖g‖) fall on the reduction that makes I triangular *)
let test_hess_exact_pole () =
  let band =
    R.congruence ~shift:0.0 ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Unit
      (Linalg.Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |])
      (Linalg.Mat.identity 2) (Linalg.Mat.identity 2)
  in
  Alcotest.(check bool) "banded form" true (is_band band);
  List.iter
    (fun s ->
      Alcotest.check_raises (Printf.sprintf "pole at s = %g" s) (Cmat.Singular 1) (fun () ->
          ignore (R.eval band (Linalg.Cx.re s))))
    [ -1.0; -3.0 ];
  let s = Linalg.Cx.re (-2.0) in
  Alcotest.(check bool) "s = -2" true (Dense_ref.rel_dist (R.eval band s) (Dense_ref.eval band s) = 0.0);
  let g = Linalg.Mat.of_arrays [| [| 2.0; 0.0; 1.0 |]; [| 0.0; 2.0; 0.0 |]; [| 1.0; 0.0; 2.0 |] |] in
  let id = Linalg.Mat.identity 3 and e1 = Linalg.Mat.init 3 1 (fun i _ -> if i = 0 then 1.0 else 0.0) in
  let gx = R.congruence ~shift:0.0 ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Unit g id e1 in
  let xg = R.congruence ~shift:0.0 ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Unit id g e1 in
  Alcotest.(check bool) "reduced forms" true (is_hess gx && is_hess xg);
  Alcotest.(check bool) "g·x + s·x: s = -3 is a pole" true (raises_singular gx (-3.0));
  Alcotest.(check bool) "x + s·g·x: s = -1/2 is a pole" true (raises_singular xg (-0.5))

(* a0 = [[0, 1], [1, 0]]: at s = 0 the first pivot is exactly zero
   and the elimination must take row 1 first *)
let test_hess_row_swap () =
  let g = Linalg.Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let id = Linalg.Mat.identity 2 in
  let r = R.congruence ~shift:0.0 ~variable:Circuit.Mna.S ~gain:Circuit.Mna.Unit g id id in
  List.iter
    (fun s ->
      let s = Linalg.Cx.make s (2.0 *. s) in
      let e = Dense_ref.rel_dist (R.eval r s) (Dense_ref.eval r s) in
      if e > 1e-15 then Alcotest.failf "s = %g%+gi: %.2e from the dense LU" s.re s.im e)
    [ 0.0; 0.5; 3.0 ]

(* D·a0·D, D·a1·D, D·b, c·D with D = diag(2^eᵢ), eᵢ over ±200: the
   same transfer function, with states 400 binades apart. Balanced,
   the form evaluates like the unscaled model's dense LU; unbalanced,
   the reduction loses the small states for good and the refinement
   step cannot bring them back *)
let test_hess_balancing () =
  let m = mna_of "coupled_lines" in
  let r = Rom.realisation (Rom.reduce ~order:10 `Prima m) in
  let n = R.order r in
  let rng = Random.State.make [| 17 |] in
  let e = Array.init n (fun _ -> Random.State.int rng 401 - 200) in
  let sc (x : Linalg.Mat.t) ei ej =
    Linalg.Mat.init x.Linalg.Mat.rows x.Linalg.Mat.cols (fun i j ->
        Float.ldexp (Linalg.Mat.get x i j) (ei i + ej j))
  in
  let ee i = e.(i) and zero _ = 0 in
  let a0 = sc r.R.a0 ee ee and a1 = sc r.R.a1 ee ee in
  (* PRIMA's c is bᵀ, so congruence rebuilds c·D = (D·b)ᵀ itself *)
  let b = sc r.R.b ee zero in
  let scaled = R.congruence ~shift:r.R.shift ~variable:r.R.variable ~gain:r.R.gain a0 a1 b in
  match hess_mismatch ~rtol:1e-10 scaled (Dense_ref.eval r) with
  | None -> ()
  | Some why -> Alcotest.failf "scaled prima 10: %s" why

let () =
  Alcotest.run "engines"
    [
      ("shift policy", [ Alcotest.test_case "rl_ladder agreement" `Quick test_shift_agreement ]);
      ( "cross-engine golden",
        List.map
          (fun base -> Alcotest.test_case base `Quick (test_engine_golden base))
          names );
      ( "pencil cache properties",
        List.map Qtest.to_alcotest [ prop_cache_hit_bitwise; prop_moments_shared_ctx ] );
      ( "pencil failure contract",
        [
          Alcotest.test_case "factor_with reports the original row" `Quick
            test_factor_with_original_row;
        ] );
      ( "realisation",
        [ Alcotest.test_case "Rom.eval fixture bit for bit" `Quick test_eval_fixture ] );
      ( "hessenberg",
        [
          Qtest.to_alcotest prop_hess_matches_dense;
          Alcotest.test_case "a graded MPVL model is refined" `Quick test_hess_graded;
          Alcotest.test_case "an exact pole is Singular" `Quick test_hess_exact_pole;
          Alcotest.test_case "a zero leading pivot takes the row swap" `Quick test_hess_row_swap;
          Alcotest.test_case "balancing undoes a power-of-two scaling" `Quick test_hess_balancing;
        ] );
    ]
