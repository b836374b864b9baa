(* Fixtures for the source lint: one firing fixture per rule
   SRC001-SRC013, the matching negative (allowed) case, suppression
   attributes, and the SRC006 interface check against a scratch tree. *)

module D = Circuit.Diagnostic

let codes ?(path = "lib/core/fixture.ml") src =
  List.map (fun d -> d.D.code) (Srclint_rules.lint_source ~path src)

let fires ?path code src = List.mem code (codes ?path src)

let check_fires name ?path code src =
  Alcotest.(check bool) (name ^ " fires " ^ code) true (fires ?path code src)

let check_clean name ?path code src =
  Alcotest.(check bool) (name ^ " does not fire " ^ code) false (fires ?path code src)

let test_src000_parse_error () =
  check_fires "syntax error" "SRC000" "let let = in"

let test_src001_clocks () =
  check_fires "Sys.time" "SRC001" "let t = Sys.time ()";
  check_fires "Unix.gettimeofday" "SRC001" "let t = Unix.gettimeofday ()";
  check_clean "lib/obs is the clock owner" ~path:"lib/obs/obs.ml" "SRC001"
    "let now = Unix.gettimeofday";
  check_clean "Obs.now" "SRC001" "let t = Obs.now ()"

let test_src002_random () =
  check_fires "Random.int" "SRC002" "let x = Random.int 5";
  check_fires "Random.self_init" "SRC002" "let () = Random.self_init ()";
  check_clean "the seeded generator home" ~path:"lib/linalg/rng.ml" "SRC002"
    "let x = Random.int 5"

let test_src003_compare () =
  check_fires "bare compare" "SRC003" "let xs = List.sort compare ys";
  check_clean "typed compare" "SRC003" "let xs = List.sort Int.compare ys";
  check_clean "file defines its own compare" "SRC003"
    "let compare a b = Int.compare a.x b.x\nlet xs = List.sort compare ys";
  check_fires "float literal equality" "SRC003" "let ok = x = 1.5";
  check_fires "float literal inequality" "SRC003" "let ok = x <> 2e-3";
  check_clean "exact-zero test is idiomatic" "SRC003" "let ok = x <> 0.0"

let test_src004_parallel_mutation () =
  check_fires "module-level ref in body" "SRC004"
    "let acc = ref 0\nlet () = Parallel.Pool.parallel_for pool 10 (fun i -> acc := !acc + i)";
  check_fires "incr in body" "SRC004"
    "let n = ref 0\nlet () = Parallel.Pool.parallel_for pool 10 (fun _ -> incr n)";
  check_fires "hashtbl mutation in body" "SRC004"
    "let h = Hashtbl.create 4\nlet () = parallel_map pool 10 (fun i -> Hashtbl.add h i i)";
  check_clean "locally bound ref is fine" "SRC004"
    "let () = Parallel.Pool.parallel_for pool 10 (fun i -> let s = ref 0 in s := i; out.(i) <- !s)";
  check_clean "slot write is the design" "SRC004"
    "let () = Parallel.Pool.parallel_for pool 10 (fun i -> out.(i) <- f i)"

let test_src005_catch_all () =
  check_fires "with _ ->" "SRC005" "let f () = try g () with _ -> ()";
  check_clean "named and reraised" "SRC005"
    "let f () = try g () with Not_found -> ()"

let test_src006_missing_mli () =
  let dir = Filename.temp_dir "srclint" "" in
  let lib = Filename.concat dir "lib" in
  Sys.mkdir lib 0o755;
  let bare = Filename.concat lib "bare.ml" in
  let covered = Filename.concat lib "covered.ml" in
  let oc = open_out bare in
  output_string oc "let x = 1\n";
  close_out oc;
  let oc = open_out covered in
  output_string oc "let x = 1\n";
  close_out oc;
  let oc = open_out (covered ^ "i") in
  output_string oc "val x : int\n";
  close_out oc;
  Alcotest.(check bool) "bare module flagged" true
    (match Srclint_rules.mli_missing bare with
    | Some d -> d.D.code = "SRC006"
    | None -> false);
  Alcotest.(check bool) "covered module clean" true
    (Srclint_rules.mli_missing covered = None);
  Alcotest.(check bool) "outside lib/ exempt" true
    (Srclint_rules.mli_missing "bin/symor.ml" = None)

let test_src007_printing () =
  check_fires "print_endline in lib" "SRC007" "let f () = print_endline \"x\"";
  check_fires "Printf.printf in lib" "SRC007" "let f () = Printf.printf \"%d\" 3";
  check_clean "sprintf is pure" "SRC007" "let s = Printf.sprintf \"%d\" 3";
  check_clean "printing from bin is fine" ~path:"bin/symor.ml" "SRC007"
    "let f () = print_endline \"x\""

let test_src008_exit () =
  check_fires "exit in lib" "SRC008" "let f () = exit 2";
  check_clean "at_exit is not exit" "SRC008" "let () = at_exit cleanup";
  check_clean "exit from bin is the contract" ~path:"bin/symor.ml" "SRC008"
    "let () = exit 2"

let test_src009_obj () =
  check_fires "Obj.magic" "SRC009" "let f x = Obj.magic x";
  check_fires "Obj in bench too" ~path:"bench/main.ml" "SRC009"
    "let f x = Obj.repr x"

let test_src010_spawn () =
  check_fires "Domain.spawn outside the pool" "SRC010"
    "let d = Domain.spawn (fun () -> ())";
  check_clean "lib/parallel owns domains" ~path:"lib/parallel/parallel.ml" "SRC010"
    "let d = Domain.spawn (fun () -> ())";
  check_fires "Thread.create anywhere" ~path:"lib/parallel/parallel.ml" "SRC010"
    "let t = Thread.create f ()"

let test_src011_getenv () =
  check_fires "non-literal variable" "SRC011" "let v = Sys.getenv_opt name";
  check_fires "non-SYMOR variable" "SRC011" "let v = Sys.getenv_opt \"HOME\"";
  check_clean "SYMOR_* literal" "SRC011" "let v = Sys.getenv_opt \"SYMOR_JOBS\""

let src012_fixture guard =
  Printf.sprintf
    "let state = ref 0\n\
     let bump () = %sstate := !state + 1%s\n\
     let _w = Domain.spawn (fun () -> bump ())\n"
    (if guard then "Mutex.lock m; " else "")
    (if guard then "; Mutex.unlock m" else "")

let test_src012_shared_state () =
  check_fires "unguarded shared ref" "SRC012" (src012_fixture false);
  check_clean "mutex-guarded access" "SRC012" (src012_fixture true);
  check_clean "no domains, no rule" "SRC012"
    "let state = ref 0\nlet bump () = state := !state + 1"

let test_src013_backend_refs () =
  check_fires "backend value" "SRC013"
    "let f env s = Sparse.Skyline.Complex_soa.factor_pencil env s";
  check_fires "backend exception pattern" "SRC013"
    "let f g = try g () with Sparse.Skyline.Singular _ -> None";
  check_fires "backend exception raised" "SRC013"
    "let f i = raise (Sparse.Supernodal.Singular i)";
  check_fires "backend type" "SRC013" "type t = { s : Sparse.Supernodal.symbolic }";
  check_fires "backend module alias" "SRC013" "module S = Sparse.Skyline";
  check_fires "the CLI too" ~path:"bin/symor.ml" "SRC013"
    "let k = Sparse.Skyline.Real.fill f";
  check_clean "through the front door" "SRC013"
    "let f ctx s = Sympvl.Pencil.factor_complex ctx s";
  check_clean "other sparse modules" "SRC013" "let p = Sparse.Rcm.order a";
  List.iter
    (fun path ->
      check_clean ("owner " ^ path) ~path "SRC013" "let x = Sparse.Skyline.Real.d f")
    [ "lib/sparse/skyline.ml"; "lib/core/pencil.ml"; "lib/core/factor.ml"; "bench/main.ml" ]

let test_suppression () =
  check_clean "expression attribute" "SRC003"
    "let xs = List.sort (compare [@srclint.allow \"SRC003\"]) ys";
  check_clean "binding attribute" "SRC001"
    "let t = Sys.time () [@@srclint.allow \"SRC001\"]";
  check_clean "file-level floating attribute" "SRC002"
    "[@@@srclint.allow \"SRC002\"]\nlet x = Random.int 5";
  check_fires "suppression is per-code" "SRC002"
    "[@@@srclint.allow \"SRC001\"]\nlet x = Random.int 5"

let test_severities () =
  let sev code src =
    match
      List.find_opt
        (fun d -> d.D.code = code)
        (Srclint_rules.lint_source ~path:"lib/core/fixture.ml" src)
    with
    | Some d -> Some d.D.severity
    | None -> None
  in
  Alcotest.(check bool) "SRC001 is an error" true
    (sev "SRC001" "let t = Sys.time ()" = Some D.Error);
  Alcotest.(check bool) "SRC003 is a warning" true
    (sev "SRC003" "let xs = List.sort compare ys" = Some D.Warning)

let test_lines_and_json () =
  let ds =
    Srclint_rules.lint_source ~path:"lib/core/fixture.ml"
      "let a = 1\nlet t = Sys.time ()\n"
  in
  (match ds with
  | [ d ] -> Alcotest.(check (option int)) "line 2" (Some 2) d.D.line
  | _ -> Alcotest.failf "expected exactly one finding, got %d" (List.length ds));
  let json = D.list_to_json ds in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "JSON carries the code" true
    (contains "\"code\":\"SRC001\"" json)

let () =
  Alcotest.run "srclint"
    [
      ( "rules",
        [
          Alcotest.test_case "SRC000 parse error" `Quick test_src000_parse_error;
          Alcotest.test_case "SRC001 clocks" `Quick test_src001_clocks;
          Alcotest.test_case "SRC002 random" `Quick test_src002_random;
          Alcotest.test_case "SRC003 compare" `Quick test_src003_compare;
          Alcotest.test_case "SRC004 parallel mutation" `Quick
            test_src004_parallel_mutation;
          Alcotest.test_case "SRC005 catch-all" `Quick test_src005_catch_all;
          Alcotest.test_case "SRC006 missing mli" `Quick test_src006_missing_mli;
          Alcotest.test_case "SRC007 printing" `Quick test_src007_printing;
          Alcotest.test_case "SRC008 exit" `Quick test_src008_exit;
          Alcotest.test_case "SRC009 Obj" `Quick test_src009_obj;
          Alcotest.test_case "SRC010 spawn" `Quick test_src010_spawn;
          Alcotest.test_case "SRC011 getenv" `Quick test_src011_getenv;
          Alcotest.test_case "SRC012 shared state" `Quick test_src012_shared_state;
          Alcotest.test_case "SRC013 backend refs" `Quick test_src013_backend_refs;
        ] );
      ( "meta",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "severities" `Quick test_severities;
          Alcotest.test_case "lines and JSON" `Quick test_lines_and_json;
        ] );
    ]
