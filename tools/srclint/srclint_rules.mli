(** Source-level concurrency, determinism & layering lint rules
    (SRC001-SRC013).

    Each rule produces {!Circuit.Diagnostic.t} findings whose message is
    prefixed with the offending path; severities follow the shared CLI
    contract ({!Circuit.Diagnostic.exit_code}). Suppress a rule with
    [[@srclint.allow "SRC003"]] on an expression or value binding, or
    file-wide with a floating [[@@@srclint.allow "SRC003"]]. *)

val lint_source : path:string -> string -> Circuit.Diagnostic.t list
(** [lint_source ~path src] parses [src] as an implementation and runs
    every AST rule. [path] determines scoping (lib/ vs bin/ vs bench/
    rules, per-directory allowances). A syntax error yields a single
    SRC000 error finding. *)

val lint_file : string -> Circuit.Diagnostic.t list
(** {!lint_source} on the file's contents plus the SRC006 interface
    check. *)

val mli_missing : string -> Circuit.Diagnostic.t option
(** SRC006: [Some finding] when [path] is a lib/ [.ml] without a
    sibling [.mli]. *)

val default_roots : string list
(** [["lib"; "bin"; "bench"]] — the directories the CI gate walks. *)

val lint_tree : string list -> (string * Circuit.Diagnostic.t list) list
(** Walk the given roots for [.ml] files (sorted, deterministic) and
    lint each; returns per-file findings in walk order. *)
