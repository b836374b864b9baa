(* srclint — the repo's source-level concurrency/determinism gate.

   Usage: srclint [--json] [--strict] [PATH ...]

   Walks the given paths (default: lib bin bench) for .ml files, runs
   SRC001-SRC013 (see Rules), and reports findings. Exit code follows
   the shared Diagnostic contract: 0 clean (infos only), 1 warnings,
   2 errors — with --strict promoting warnings to errors, which is how
   CI runs it. *)

module Diagnostic = Circuit.Diagnostic

let usage () =
  print_string
    "usage: srclint [--json] [--strict] [PATH ...]\n\n\
     Source lint for concurrency, determinism and layering invariants\n\
     (rules SRC001-SRC013; see README \"Correctness tooling\").\n\n\
     \  --json    emit findings as a JSON array\n\
     \  --strict  exit 2 on warnings as well as errors\n\n\
     Default paths: lib bin bench\n"

let () =
  let json = ref false and strict = ref false and paths = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--json" -> json := true
        | "--strict" -> strict := true
        | "-h" | "--help" ->
          usage ();
          exit 0
        | p when String.length p > 0 && p.[0] = '-' ->
          Printf.eprintf "srclint: unknown option %s\n" p;
          exit 2
        | p -> paths := p :: !paths)
    Sys.argv;
  let roots = match List.rev !paths with [] -> Srclint_rules.default_roots | ps -> ps in
  let per_file = Srclint_rules.lint_tree roots in
  let findings = List.concat_map snd per_file in
  if !json then print_endline (Diagnostic.list_to_json findings)
  else begin
    List.iter
      (fun d -> Format.printf "%a@." Diagnostic.pp d)
      findings;
    Printf.printf "srclint: %d files, %d findings (%d errors, %d warnings)\n"
      (List.length per_file) (List.length findings)
      (Diagnostic.count Diagnostic.Error findings)
      (Diagnostic.count Diagnostic.Warning findings)
  end;
  exit (Diagnostic.exit_code ~strict:!strict findings)
