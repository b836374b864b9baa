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
      the original (unpermuted) row, also from factor_with. *)

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
  Alcotest.(check (float 0.0)) "arnoldi shift" expected arn.Sympvl.Arnoldi.shift;
  Alcotest.(check (float 0.0)) "mpvl shift" expected mp.Sympvl.Mpvl.shift

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
      let x_cold = (Pencil.factor ctx ~shift).Sympvl.Factor.solve rhs in
      let x_hit = (Pencil.factor ctx ~shift).Sympvl.Factor.solve rhs in
      let x_fresh = (Pencil.factor (Pencil.create m) ~shift).Sympvl.Factor.solve rhs in
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
    match Sympvl.Factor.plan (Sparse.Csr.add g c) with `Skyline p | `Supernodal p -> p
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
    ]
