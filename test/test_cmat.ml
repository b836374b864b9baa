(* Differential tests: the split-array dense complex kernels in
   [Linalg.Cmat] against the boxed [Complex.t] oracle in [Cmat_boxed].

   The library kernels promise the same floating-point operations in
   the same order as the oracle, so every comparison here is bit for
   bit ([Int64.bits_of_float] on every re/im word), and a singular
   input must raise the same [Singular k] on both sides.

   1. qcheck property over random complex matrices, n = 1…64: LU
      factors and pivots, vector and matrix solves, products and
      linear combinations. The generator mixes plain random entries
      with exact-zero rows and columns (the skipped-update branch),
      entries of equal modulus (pivot ties: the first maximum wins)
      and rank-deficient inputs.
   2. The SyMPVL eval formula recomposed from the oracle kernels
      agrees, on every example netlist, with the arm of
      [Realisation.eval] that the model takes. The band arm (J ≠ I:
      T eliminated as it is) agrees bit for bit: it makes the oracle
      LU's pivots and roundings. The pole–residue arm (J = I) solves
      by other operations and agrees to 1e-12 relative (1e-10 on the
      LC tank, and 16ε·s₀/|var| where a shifted model is evaluated far
      below s₀). *)

open Linalg
module Rom = Sympvl.Rom
module Model = Sympvl.Model
module R = Sympvl.Realisation

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let cmat_bits_equal (x : Cmat.t) (y : Cmat.t) =
  x.rows = y.rows && x.cols = y.cols && bits_equal x.re y.re && bits_equal x.im y.im

let cx_array_bits_equal a b =
  bits_equal (Array.map (fun z -> z.Complex.re) a) (Array.map (fun z -> z.Complex.re) b)
  && bits_equal (Array.map (fun z -> z.Complex.im) a) (Array.map (fun z -> z.Complex.im) b)

(* ------------------------------------------------------------------ *)
(* random inputs                                                       *)

(* entries of modulus exactly 5 (and 1): many ties for the pivot search *)
let tie_values =
  [| (3.0, 4.0); (-4.0, 3.0); (5.0, 0.0); (0.0, -5.0); (4.0, -3.0); (1.0, 0.0); (0.0, 1.0) |]

let random_entry rng kind =
  let u () = Random.State.float rng 2.0 -. 1.0 in
  match kind with
  | `Plain -> Cx.make (u ()) (u ())
  | `Ties ->
    let r, i = tie_values.(Random.State.int rng (Array.length tie_values)) in
    Cx.make r i
  | `Small_int ->
    Cx.make
      (float_of_int (Random.State.int rng 5 - 2))
      (float_of_int (Random.State.int rng 3 - 1))
  | `Real -> Cx.re (u ())

let random_cmat rng rows cols =
  let kind =
    match Random.State.int rng 4 with 0 -> `Plain | 1 -> `Ties | 2 -> `Small_int | _ -> `Real
  in
  let m = Cmat.init rows cols (fun _ _ -> random_entry rng kind) in
  (* exact-zero entries, rows and columns *)
  if Random.State.int rng 3 = 0 then
    for _ = 1 to Random.State.int rng (rows * cols) do
      Cmat.set m (Random.State.int rng rows) (Random.State.int rng cols) Cx.zero
    done;
  if Random.State.int rng 4 = 0 then begin
    let r = Random.State.int rng rows in
    for j = 0 to cols - 1 do
      Cmat.set m r j Cx.zero
    done
  end;
  if Random.State.int rng 4 = 0 then begin
    let c = Random.State.int rng cols in
    for i = 0 to rows - 1 do
      Cmat.set m i c Cx.zero
    done
  end;
  m

(* a rank-deficient square matrix: one row a combination of two others *)
let make_singular rng (m : Cmat.t) =
  let n = m.rows in
  if n >= 3 then begin
    let a = Random.State.int rng n and b = Random.State.int rng n in
    let t = (a + 1 + Random.State.int rng (n - 1)) mod n in
    for j = 0 to n - 1 do
      Cmat.set m t j Cx.(Cmat.get m a j +: smul 2.0 (Cmat.get m b j))
    done
  end

let factor_or_singular f m = match f m with lu -> Ok lu | exception Cmat.Singular k -> Error k

let fail fmt = QCheck.Test.fail_reportf fmt

let check_case seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 64 in
  let a = random_cmat rng n n in
  if Random.State.int rng 5 = 0 then make_singular rng a;
  (match (factor_or_singular Cmat.lu_factor a, factor_or_singular Cmat_boxed.lu_factor a) with
  | Error k, Error k' -> if k <> k' then fail "n = %d: Singular %d vs oracle Singular %d" n k k'
  | Ok _, Error k -> fail "n = %d: oracle raised Singular %d, kernel did not" n k
  | Error k, Ok _ -> fail "n = %d: kernel raised Singular %d, oracle did not" n k
  | Ok lu, Ok lu' ->
    let packed, piv = Cmat.lu_packed lu in
    if not (cmat_bits_equal packed lu'.Cmat_boxed.lu_mat) then fail "n = %d: LU factors differ" n;
    if piv <> lu'.Cmat_boxed.piv then fail "n = %d: pivot orders differ" n;
    let nc = 1 + Random.State.int rng 8 in
    let b = random_cmat rng n nc in
    if not (cmat_bits_equal (Cmat.lu_solve_mat lu b) (Cmat_boxed.lu_solve_mat lu' b)) then
      fail "n = %d: lu_solve_mat with %d columns differs" n nc;
    let v = Array.init n (fun i -> Cmat.get b i 0) in
    if not (cx_array_bits_equal (Cmat.lu_solve_vec lu v) (Cmat_boxed.lu_solve_vec lu' v)) then
      fail "n = %d: lu_solve_vec differs" n);
  let q = 1 + Random.State.int rng 16 in
  let y = random_cmat rng n q in
  if not (cmat_bits_equal (Cmat.mul a y) (Cmat_boxed.mul a y)) then fail "n = %d: mul differs" n;
  let ra = Mat.init n q (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
  let rb = Mat.init n q (fun i j -> if (i + j) mod 3 = 0 then 0.0 else Random.State.float rng 1.0) in
  let ca = random_entry rng `Plain and cb = random_entry rng `Ties in
  if not (cmat_bits_equal (Cmat.lincomb ca ra cb rb) (Cmat_boxed.lincomb ca ra cb rb)) then
    fail "n = %d: lincomb differs" n;
  if not (cmat_bits_equal (Cmat.of_real ra) (Cmat_boxed.of_real ra)) then
    fail "n = %d: of_real differs" n;
  true

let prop_kernels_bitwise =
  QCheck.Test.make ~count:300 ~name:"split-array kernels bitwise equal to the boxed oracle"
    QCheck.(int_bound 1_000_000)
    check_case

(* ------------------------------------------------------------------ *)
(* SyMPVL Rom.eval recomposed from the oracle                          *)

let netlist_path base =
  List.find_opt Sys.file_exists
    [ "../examples/netlists/" ^ base ^ ".cir"; "examples/netlists/" ^ base ^ ".cir" ]
  |> Option.value ~default:("../examples/netlists/" ^ base ^ ".cir")

let oracle_eval (m : Model.t) s =
  let var = match m.Model.variable with Circuit.Mna.S -> s | Circuit.Mna.S_squared -> Cx.(s *: s) in
  let sigma = Cx.(var -: re m.Model.shift) in
  let k = Cmat_boxed.lincomb Cx.one (Mat.identity m.Model.order) sigma m.Model.t_mat in
  let x = Cmat_boxed.solve k (Cmat_boxed.of_real m.Model.rho) in
  let rho_delta = Mat.mul (Mat.transpose m.Model.rho) m.Model.delta in
  let z = Cmat_boxed.mul (Cmat_boxed.of_real rho_delta) x in
  match m.Model.gain with Circuit.Mna.Unit -> z | Circuit.Mna.Times_s -> Cmat.scale s z

let test_model_eval_arms () =
  List.iter
    (fun base ->
      let mna = Circuit.Mna.auto (Circuit.Parser.parse_file (netlist_path base)) in
      let model = Rom.reduce ~order:8 `Sympvl mna in
      let m = match model with Rom.Sympvl_model m -> m | _ -> assert false in
      let truncated = Model.truncate m (max 1 (m.Model.order - 2)) in
      List.iter
        (fun f ->
          let s = Cx.im (2.0 *. Float.pi *. f) in
          List.iter
            (fun (label, m) ->
              let r = m.Model.real and want = oracle_eval m s in
              (* a shifted expansion (rl_ladder, s₀ = 1e10) evaluated at
                 |var| ≪ s₀ carries a condition of ~s₀/|var|: one ulp of
                 T moves Z by ε·s₀/|var| there, on every arm *)
              let var = if m.Model.variable = Circuit.Mna.S then Cx.abs s else Cx.abs s ** 2.0 in
              let cond = Float.max 1.0 (Float.abs m.Model.shift /. var) in
              let rtol =
                Float.max (16.0 *. epsilon_float *. cond) (if base = "lc_tank" then 1e-10 else 1e-12)
              in
              let check arm z =
                let err = Cmat.dist_max z want /. Float.max (Cmat.max_abs want) 1e-300 in
                if err > rtol then
                  Alcotest.failf "%s%s at %.0e Hz: %s arm %.2e from the oracle (rtol %.1e)" base
                    label f arm err rtol
              in
              let got = Rom.eval (Rom.Sympvl_model m) s in
              match r.R.form with
              | R.Band _ ->
                (* T eliminated as it is: the oracle's pivots and rounding *)
                if not (cmat_bits_equal got want) then
                  Alcotest.failf "%s%s at %.0e Hz: band arm differs from the oracle" base label f
              | R.Modal _ -> check "modal" got
              | R.Hess _ -> check "Hessenberg" got)
            [ ("", m); (" truncated", truncated) ])
        [ 1e3; 1e6; 1e8; 1e9; 1e10 ])
    [ "rc_line"; "lc_tank"; "rl_ladder"; "coupled_lines"; "peec_coupled" ]

let () =
  Alcotest.run "cmat"
    [
      ("properties", [ Qtest.to_alcotest prop_kernels_bitwise ]);
      ( "model",
        [ Alcotest.test_case "sympvl eval arms vs oracle kernels" `Quick test_model_eval_arms ]
      );
    ]
