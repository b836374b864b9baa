(* Static-analysis (lint) tests.

   One positive and one negative case per lint rule: the positive is a
   minimal netlist that must trigger the code, the negative a near-miss
   that must not. *)

module D = Circuit.Diagnostic
module L = Analysis.Lint

let codes s = List.map (fun d -> d.D.code) (L.lint_string s)
let has code s = List.mem code (codes s)

let contains_sub sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_has code s =
  Alcotest.(check bool) (code ^ " present") true (has code s)

let check_not code s =
  Alcotest.(check bool) (code ^ " absent") false (has code s)

(* a netlist with no findings above info *)
let clean = "R1 1 2 10\nC1 1 0 1p\nR2 2 0 10\nC2 2 0 1p\n.port in 1\n"

let test_clean () =
  let ds = L.lint_string clean in
  Alcotest.(check bool)
    "only info findings" true
    (List.for_all (fun d -> d.D.severity = D.Info) ds);
  check_has "NET013" clean

(* (code, triggering netlist, near-miss netlist) *)
let cases =
  [
    ("NET000", "R1 1\n", clean);
    ( "NET001",
      "R1 1 0 1\nC1 2 3 1p\n.port in 1\n",
      (* the same island grounded *) "R1 1 0 1\nC1 2 0 1p\nR2 2 0 5\n.port in 1\n" );
    ( "NET002",
      "R1 1 0 1\nR2 1 2 5\n.port in 1\n",
      (* the dead end is a declared port *) "R1 1 0 1\nR2 1 2 5\n.port in 1\n.port out 2\n"
    );
    ("NET003", "R1 1 0 1\n.port in 1\n.port out 9\n", clean);
    ("NET004", "R1 1 0 1\n.port in 1\n.port gnd 0\n", clean);
    ("NET005", "R1 1 0 1\nR1 1 0 2\n.port in 1\n", clean);
    ( "NET007",
      "R1 1 0 -5\nC1 1 0 1p\n.port in 1\n",
      "R1 1 0 5\nC1 1 0 1p\n.port in 1\n" );
    ( "NET008",
      "R1 1 0 1\nR2 2 0 1\nL1 1 0 1n\nL2 2 0 1n\nK1 L1 L2 1.5\n.port in 1\n",
      "R1 1 0 1\nR2 2 0 1\nL1 1 0 1n\nL2 2 0 1n\nK1 L1 L2 0.95\n.port in 1\n" );
    ( "NET009",
      "R1 1 0 1\nV1 1 0 1\nV2 1 0 2\n.port in 1\n",
      "R1 1 0 1\nV1 1 0 1\n.port in 1\n" );
    ( "NET010",
      "L1 1 0 1n\nL2 1 0 1n\n.port in 1\n",
      "L1 1 2 1n\nL2 2 0 1n\n.port in 1\n" );
    ( "NET011",
      "R1 1 2 1\nC1 2 0 1p\n.port in 1\n",
      "R1 1 2 1\nC1 2 0 1p\nR2 2 0 50\n.port in 1\n" );
    ( "NET012",
      "R1 1 0 1\nV1 1 0 1\n.port in 1\n",
      "R1 1 0 1\nI1 1 0 1\n.port in 1\n" );
    ("NET014", "R1 1 0 1\nR2 2 0 1\n.port in 1\n.port in 2\n", clean);
    ( "NET015",
      (* pairwise |k| < 1 but the combination is indefinite *)
      "R1 1 0 1\nL1 1 0 1n\nL2 1 0 1n\nL3 1 0 1n\nK1 L1 L2 0.9\nK2 L1 L3 0.9\n\
       K3 L2 L3 -0.9\n.port in 1\n",
      "R1 1 0 1\nL1 1 0 1n\nL2 1 0 1n\nL3 1 0 1n\nK1 L1 L2 0.9\nK2 L1 L3 0.9\n\
       K3 L2 L3 0.9\n.port in 1\n" );
    ("NET016", "R1 1 0 1\n", clean);
  ]

let rule_tests =
  List.map
    (fun (code, pos, neg) ->
      Alcotest.test_case code `Quick (fun () ->
          check_has code pos;
          check_not code neg))
    cases

(* NET006 needs a non-finite value, which the parser's own guards
   reject at read time (reported as NET000) — inject via the API. *)
let test_net006 () =
  let nl = Circuit.Netlist.create () in
  let n1 = Circuit.Netlist.node nl "1" in
  Circuit.Netlist.add nl
    (Circuit.Netlist.Resistor { name = "R1"; n1; n2 = 0; ohms = 1.0 });
  Circuit.Netlist.add nl
    (Circuit.Netlist.Current_source
       { name = "I1"; n1; n2 = 0; wave = Circuit.Waveform.Dc Float.nan });
  Circuit.Netlist.add_port nl "in" n1;
  let ds = L.run nl in
  Alcotest.(check bool) "NET006 present" true
    (List.exists (fun d -> d.D.code = "NET006") ds);
  (* zero-value cards are caught by the parser and become NET000 *)
  check_has "NET000" "R1 1 0 0\n.port in 1\n"

let test_net013_classes () =
  let class_of s =
    match List.find_opt (fun d -> d.D.code = "NET013") (L.lint_string s) with
    | Some d -> d.D.message
    | None -> Alcotest.fail "NET013 missing"
  in
  let contains sub msg =
    Alcotest.(check bool) (sub ^ " in: " ^ msg) true (contains_sub sub msg)
  in
  contains "class: RC" (class_of clean);
  contains "provably stable and passive" (class_of clean);
  contains "class: RL" (class_of "R1 1 0 1\nL1 1 0 1n\n.port in 1\n");
  contains "class: RLC" (class_of "R1 1 0 1\nL1 1 0 1n\nC1 1 0 1p\n.port in 1\n");
  check_not "NET013" "R1 1\n"

let test_sorted_and_lines () =
  let ds = L.lint_string "C1 2 3 1p\nR1 1 0 -5\n.port in 1\n" in
  (* errors first *)
  let rank = function D.Error -> 0 | D.Warning -> 1 | D.Info -> 2 in
  let sevs = List.map (fun d -> d.D.severity) ds in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> rank a <= rank b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "errors sort first" true (non_increasing sevs);
  (* provenance: the floating island is reported at the C1 card's line *)
  let net001 = List.find (fun d -> d.D.code = "NET001") ds in
  Alcotest.(check (option int)) "NET001 line" (Some 1) net001.D.line;
  let net007 = List.find (fun d -> d.D.code = "NET007") ds in
  Alcotest.(check (option int)) "NET007 line" (Some 2) net007.D.line

let test_exit_code () =
  let ec ~strict s = D.exit_code ~strict (L.lint_string s) in
  Alcotest.(check int) "clean" 0 (ec ~strict:false clean);
  Alcotest.(check int) "warning only" 1 (ec ~strict:false "R1 1 0 -5\n.port in 1\n");
  Alcotest.(check int) "warning strict" 2 (ec ~strict:true "R1 1 0 -5\n.port in 1\n");
  Alcotest.(check int) "error" 2 (ec ~strict:false "R1 1\n")

let test_json () =
  let ds = L.lint_string "R1 1\n" in
  let j = D.list_to_json ds in
  Alcotest.(check bool) "code field" true (contains_sub "\"code\":\"NET000\"" j);
  Alcotest.(check bool) "severity field" true (contains_sub "\"severity\":\"error\"" j)

let test_rule_table () =
  (* every code the engine can emit is documented in the rule table *)
  let documented = List.map (fun (c, _, _) -> c) L.rules in
  Alcotest.(check bool) "16 NET rules documented" true (List.length documented >= 16);
  List.iter
    (fun (code, pos, _) ->
      List.iter
        (fun c ->
          if String.length c >= 3 && String.sub c 0 3 = "NET" then
            Alcotest.(check bool) (c ^ " documented (" ^ code ^ ")") true
              (List.mem c documented))
        (codes pos))
    cases

(* ---- property: lint-clean netlists reduce without Singular -------- *)

let prop_lint_clean_reduces =
  QCheck.Test.make ~count:30 ~name:"lint: clean random RC reduces without Singular"
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let nl =
        Circuit.Generators.random_rc ~nodes:(5 + (abs seed mod 15)) ~extra_edges:6
          ~seed ()
      in
      let ds = Analysis.Lint.run nl in
      QCheck.assume (List.for_all (fun d -> d.D.severity = D.Info) ds);
      let mna = Circuit.Mna.auto nl in
      match Sympvl.Reduce.mna ~order:5 mna with
      | _ -> true
      | exception Sympvl.Factor.Singular _ -> false)

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "clean netlist" `Quick test_clean;
          Alcotest.test_case "NET006 values" `Quick test_net006;
          Alcotest.test_case "NET013 classes" `Quick test_net013_classes;
          Alcotest.test_case "sorted with provenance" `Quick test_sorted_and_lines;
          Alcotest.test_case "exit codes" `Quick test_exit_code;
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "rule table" `Quick test_rule_table;
        ]
        @ rule_tests );
      ( "property",
        List.map (fun t -> Qtest.to_alcotest t) [ prop_lint_clean_reduces ] );
    ]
