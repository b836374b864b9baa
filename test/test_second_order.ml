(* Second-order (susceptance) spine tests.

   1. qcheck: the parser round-trips K cards — print/reparse preserves
      every mutual coupling (names, inductor refs, and k to the
      printer's 9 significant digits).
   2. SPRIM: split-basis structure is preserved exactly
      (structure_error = 0), the full-order model reproduces the exact
      AC response, and the reduced blocks stay symmetric after
      re-assembly.
   3. NET017: malformed mutual couplings (zero k, self-coupling,
      unknown inductor refs) are linted with provenance, |k| ≥ 1 stays
      NET008's, and MNA assembly refuses the malformed netlist.
   4. RLCk round-trip: Sprim reduce -> Synth.Rlck -> print -> reparse
      -> Mna.assemble matches the reduced model's transfer function
      within the engine's golden rtol (the printer quantizes element
      values to 9 significant digits), and the synthesized netlist
      lints without errors. *)

module M = Circuit.Mna
module N = Circuit.Netlist

let find_path cands =
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let netlist_of base =
  Circuit.Parser.parse_file
    (find_path
       [ "../examples/netlists/" ^ base ^ ".cir"; "examples/netlists/" ^ base ^ ".cir" ])

(* dense complex evaluation of a first-order MNA pencil *)
let dense_eval (m : M.t) s =
  let var =
    match m.M.variable with M.S -> s | M.S_squared -> Linalg.Cx.(s *: s)
  in
  let g = Sparse.Csr.to_dense m.M.g in
  let c = Sparse.Csr.to_dense m.M.c in
  let k = Linalg.Cmat.lincomb Linalg.Cx.one g var c in
  let b = Linalg.Cmat.of_real m.M.b in
  let z =
    Linalg.Cmat.mul (Linalg.Cmat.transpose b)
      (Linalg.Cmat.lu_solve_mat (Linalg.Cmat.lu_factor k) b)
  in
  match m.M.gain with
  | M.Unit -> z
  | M.Times_s -> Linalg.Cmat.scale s z

let rel_dist z1 z2 =
  let p = z1.Linalg.Cmat.rows in
  let err = ref 0.0 and scale = ref 1e-300 in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      let d =
        Complex.norm (Complex.sub (Linalg.Cmat.get z1 i j) (Linalg.Cmat.get z2 i j))
      in
      err := Float.max !err d;
      scale := Float.max !scale (Complex.norm (Linalg.Cmat.get z1 i j))
    done
  done;
  !err /. !scale

let probe_freqs = [ 1e6; 3.1e7; 1e9; 1e10 ]

(* ------------------------------------------------------------------ *)
(* 1. K cards round-trip through the parser                            *)

let prop_k_card_roundtrip =
  QCheck.Test.make ~count:50 ~name:"parser round-trips K cards"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, ni) ->
      let st = Random.State.make [| seed |] in
      let nl = N.create () in
      (* a chain of inductors with shunt resistors, then couple random
         distinct pairs with k drawn across the full open interval *)
      for i = 1 to ni do
        let a = N.node nl (Printf.sprintf "n%d" (i - 1)) in
        let b = N.node nl (Printf.sprintf "n%d" i) in
        N.add nl
          (N.Inductor
             {
               name = Printf.sprintf "L%d" i;
               n1 = a;
               n2 = b;
               henries = 1e-9 *. float_of_int i;
             });
        N.add nl
          (N.Resistor { name = Printf.sprintf "R%d" i; n1 = b; n2 = 0; ohms = 10.0 })
      done;
      let mutuals = ref [] in
      let idx = ref 0 in
      for i = 1 to ni do
        for j = i + 1 to ni do
          if Random.State.bool st then begin
            incr idx;
            let mag = 1e-4 +. (0.9 *. Random.State.float st 1.0) in
            let k = if Random.State.bool st then mag else -.mag in
            let l1 = Printf.sprintf "L%d" i and l2 = Printf.sprintf "L%d" j in
            N.add_mutual nl ~name:(Printf.sprintf "K%d" !idx) l1 l2 k;
            mutuals := (Printf.sprintf "K%d" !idx, l1, l2, k) :: !mutuals
          end
        done
      done;
      N.add_port nl "in" (N.node nl "n0");
      let nl2 = Circuit.Parser.parse_string (Circuit.Parser.to_string nl) in
      let back =
        List.filter_map
          (function
            | N.Mutual { name; l1; l2; k } -> Some (name, l1, l2, k) | _ -> None)
          (N.elements nl2)
      in
      let close (n1, a1, b1, k1) (n2, a2, b2, k2) =
        (* the printer emits %.9g, so k round-trips to 9 significant
           digits, not to the last bit *)
        n1 = n2 && a1 = a2 && b1 = b2 && Float.abs (k1 -. k2) <= 1e-8 *. Float.abs k1
      in
      List.length back = List.length !mutuals
      && List.for_all2 close (List.sort compare back) (List.sort compare !mutuals))

(* ------------------------------------------------------------------ *)
(* 2. SPRIM structure preservation                                     *)

let test_sprim_structure base () =
  let m = M.auto (netlist_of base) in
  let sp = Sympvl.Sprim.reduce ~order:m.M.n m in
  Alcotest.(check (float 0.0))
    (base ^ ": structure error is exactly zero") 0.0
    (Sympvl.Sprim.structure_error sp);
  (* re-assembled ghat/chat must be symmetric (block congruence) *)
  let sym name mat =
    Alcotest.(check (float 0.0))
      (base ^ ": " ^ name ^ " symmetric")
      0.0
      (Linalg.Mat.dist_max mat (Linalg.Mat.transpose mat))
  in
  sym "ghat" sp.Sympvl.Sprim.real.Sympvl.Realisation.a0;
  sym "chat" sp.Sympvl.Sprim.real.Sympvl.Realisation.a1;
  (* at full Krylov depth the model reproduces the exact response *)
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let d = rel_dist (dense_eval m s) (Sympvl.Realisation.eval sp.Sympvl.Sprim.real s) in
      if d > 1e-8 then
        Alcotest.failf "%s: full-order SPRIM deviates %.3e at %g Hz" base d f)
    probe_freqs

let test_sprim_supports () =
  let check base expected =
    let m = M.auto (netlist_of base) in
    let got = match Sympvl.Rom.supports `Sprim m with Ok () -> true | Error _ -> false in
    Alcotest.(check bool) (base ^ ": sprim support") expected got
  in
  check "rc_line" false;
  check "lc_tank" false;
  check "rl_ladder" false;
  check "coupled_lines" true;
  check "peec_coupled" true

(* ------------------------------------------------------------------ *)
(* 3. NET017 lint + MNA refusal                                        *)

let lint_codes text =
  List.map (fun d -> d.Circuit.Diagnostic.code) (Analysis.Lint.lint_string text)

let has_code c text = List.mem c (lint_codes text)

let base_pair =
  "L1 1 0 1n\nL2 2 0 1n\nR1 1 0 5\nR2 2 0 5\n.port in 1\n"

let test_net017 () =
  Alcotest.(check bool) "zero k is NET017" true
    (has_code "NET017" (base_pair ^ "K1 L1 L2 0\n"));
  Alcotest.(check bool) "self-coupling is NET017" true
    (has_code "NET017" (base_pair ^ "K1 L1 L1 0.5\n"));
  Alcotest.(check bool) "unknown inductor is NET017" true
    (has_code "NET017" (base_pair ^ "K1 L1 Lmissing 0.5\n"));
  Alcotest.(check bool) "|k| >= 1 stays NET008" true
    (has_code "NET008" (base_pair ^ "K1 L1 L2 1.5\n"));
  Alcotest.(check bool) "|k| >= 1 is not NET017" false
    (has_code "NET017" (base_pair ^ "K1 L1 L2 1.5\n"));
  Alcotest.(check bool) "well-formed coupling is clean" false
    (List.exists
       (fun c -> c = "NET017" || c = "NET008")
       (lint_codes (base_pair ^ "K1 L1 L2 0.5\n")));
  (* NET017 findings carry the K card's source line *)
  let bad = base_pair ^ "K1 L1 Lmissing 0.5\n" in
  let d =
    List.find
      (fun d -> d.Circuit.Diagnostic.code = "NET017")
      (Analysis.Lint.lint_string bad)
  in
  Alcotest.(check (option int)) "NET017 has provenance" (Some 6)
    d.Circuit.Diagnostic.line;
  (* assembly refuses what the linter flags *)
  let nl = Circuit.Parser.parse_string bad in
  Alcotest.(check bool) "Mna.assemble refuses the malformed coupling" true
    (match M.assemble nl with
    | _ -> false
    | exception Circuit.Diagnostic.User_error _ -> true)

(* ------------------------------------------------------------------ *)
(* 4. RLCk round-trip                                                  *)

let test_rlck_roundtrip base () =
  let m = M.auto (netlist_of base) in
  let sp = Sympvl.Sprim.reduce ~order:(min 8 m.M.n) m in
  let nl2, st = Synth.Rlck.synthesize ~port_names:m.M.port_names sp in
  Alcotest.(check bool) (base ^ ": synthesis emits inductors") true
    (st.Synth.Rlck.inductors > 0);
  (* the synthesized netlist must survive print -> reparse -> lint
     without errors (warnings for negative elements are expected);
     full precision, as the CLI --synth path uses: the susceptance
     branches nearly cancel, so 9-digit quantisation would be
     amplified well past golden_rtol on reassembly *)
  let printed = Circuit.Parser.to_string ~precision:17 nl2 in
  let diags = Analysis.Lint.lint_string printed in
  Alcotest.(check int)
    (base ^ ": synthesized netlist lints without errors")
    0
    (Circuit.Diagnostic.count Circuit.Diagnostic.Error diags);
  let m2 = M.assemble (Circuit.Parser.parse_string printed) in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      let d = rel_dist (Sympvl.Realisation.eval sp.Sympvl.Sprim.real s) (dense_eval m2 s) in
      if d > Sympvl.Rom.golden_rtol `Sprim then
        Alcotest.failf "%s: RLCk round-trip deviates %.3e at %g Hz" base d f)
    probe_freqs

let () =
  Alcotest.run "second_order"
    [
      ( "parser",
        List.map Qtest.to_alcotest [ prop_k_card_roundtrip ] );
      ( "sprim",
        Alcotest.test_case "supports matrix" `Quick test_sprim_supports
        :: List.map
             (fun base ->
               Alcotest.test_case (base ^ " structure") `Quick
                 (test_sprim_structure base))
             [ "coupled_lines"; "peec_coupled" ] );
      ("lint", [ Alcotest.test_case "NET017" `Quick test_net017 ]);
      ( "rlck",
        List.map
          (fun base ->
            Alcotest.test_case (base ^ " round-trip") `Quick
              (test_rlck_roundtrip base))
          [ "coupled_lines"; "peec_coupled" ] );
    ]
