(* Source-level concurrency, determinism & layering lint (SRC001-SRC013).

   Parses each .ml file with compiler-libs and walks the Parsetree with
   Ast_iterator; findings are emitted through Circuit.Diagnostic so the
   CLI shares the netlist linter's JSON shape and exit-code contract.

   The rules encode the repo's concurrency invariants:

   - SRC001  wall/CPU clocks outside lib/obs (use Obs.now)
   - SRC002  Stdlib Random outside lib/linalg/rng.ml (use Linalg.Rng)
   - SRC003  bare polymorphic [compare] / float-literal (in)equality
   - SRC004  mutation of non-local state inside a pooled parallel body
   - SRC005  catch-all [with _ ->] exception handler
   - SRC006  .ml under lib/ without an .mli (checked by the tree walker)
   - SRC007  stdout/stderr printing in lib/ (use Logs or Diagnostic)
   - SRC008  [exit] in lib/ (only the CLI decides the exit code)
   - SRC009  Obj.* anywhere
   - SRC010  Domain.spawn outside lib/parallel; Thread.create anywhere
   - SRC011  getenv of a non-literal or non-SYMOR_* variable
   - SRC012  module-level mutable state in a Domain-aware module used
             by a function that never takes a Mutex
   - SRC013  Sparse.Skyline / Sparse.Supernodal named in lib/ or bin/
             outside lib/sparse and lib/core/{pencil,factor}.ml (the
             factor backends sit behind Sympvl.Pencil; bench/ is exempt)

   Suppression: [@srclint.allow "SRC003"] on an expression or a value
   binding, or a floating [@@@srclint.allow "SRC003"] for the whole
   file; the payload is a comma/space-separated code list. *)

open Parsetree

module Diagnostic = Circuit.Diagnostic

let line (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let lid_to_string lid =
  match Longident.flatten lid with
  | parts -> String.concat "." parts
  | exception _ -> ""

(* ---------- path scoping ---------- *)

let segments path = String.split_on_char '/' path

let in_dir d path = List.mem d (segments path)

let in_lib path = in_dir "lib" path

let is_rng path = in_dir "linalg" path && Filename.basename path = "rng.ml"

(* ---------- rule tables ---------- *)

let clock_idents = [ "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Sys.time" ]

let printer_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Stdlib.print_string"; "Stdlib.print_endline";
  ]

let getenv_idents = [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv" ]

let hashtbl_mutators = [ "add"; "replace"; "remove"; "reset"; "clear" ]

(* modules whose module-level state is allowed to be touched from a
   parallel body: their own synchronisation is the point *)
let sync_safe_modules = [ "Atomic"; "Obs"; "San"; "Mutex" ]

(* ---------- lint state ---------- *)

type state = {
  path : string;
  mutable findings : Diagnostic.t list;
  mutable allow : string list list; (* stack of allowed-code frames *)
  file_allow : string list;
  has_own_compare : bool;
  mentions_domain : bool;
}

let allowed st code =
  List.mem code st.file_allow || List.exists (List.mem code) st.allow

let emit st ?line ~code ~severity msg =
  if not (allowed st code) then
    st.findings <-
      Diagnostic.make ?line ~code ~severity (st.path ^ ": " ^ msg) :: st.findings

let err st ?line code msg = emit st ?line ~code ~severity:Diagnostic.Error msg

let warn st ?line code msg = emit st ?line ~code ~severity:Diagnostic.Warning msg

(* ---------- suppression attributes ---------- *)

let allow_codes_of_payload = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    String.split_on_char ',' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter_map (fun tok ->
           match String.trim tok with "" -> None | t -> Some t)
  | _ -> []

let allow_codes_of_attrs attrs =
  List.concat_map
    (fun a ->
      if a.attr_name.Location.txt = "srclint.allow" then
        allow_codes_of_payload a.attr_payload
      else [])
    attrs

(* ---------- generic expression queries ---------- *)

let expr_contains_ident pred e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } -> if pred (lid_to_string txt) then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

let bound_names e =
  let tbl = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> Hashtbl.replace tbl txt ()
          | Ppat_alias (_, { txt; _ }) -> Hashtbl.replace tbl txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.expr it e;
  tbl

(* ---------- SRC004: non-local mutation in a parallel body ---------- *)

let is_parallel_call lid =
  match lid with
  | Longident.Lident n | Longident.Ldot (_, n) ->
    n = "parallel_for" || n = "parallel_map"
  | _ -> false

let scan_parallel_body st body =
  let bound = bound_names body in
  let flag loc what =
    err st ~line:(line loc) "SRC004"
      (Printf.sprintf
         "parallel body mutates non-local state '%s'; iterations must only write \
          their own slot (use Atomic, or move the accumulation after the join)"
         what)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
                (_, target) :: _ )
            when op = ":=" || op = "incr" || op = "decr" -> (
            match target.pexp_desc with
            | Pexp_ident { txt = Longident.Lident x; _ }
              when not (Hashtbl.mem bound x) ->
              flag target.pexp_loc x
            | Pexp_ident { txt = Longident.Ldot (Longident.Lident m, x); _ }
              when not (List.mem m sync_safe_modules) ->
              flag target.pexp_loc (m ^ "." ^ x)
            | _ -> ())
          | Pexp_apply
              ( {
                  pexp_desc =
                    Pexp_ident
                      { txt = Longident.Ldot (Longident.Lident "Hashtbl", m); _ };
                  _;
                },
                (_, target) :: _ )
            when List.mem m hashtbl_mutators -> (
            match target.pexp_desc with
            | Pexp_ident { txt = Longident.Lident x; _ }
              when not (Hashtbl.mem bound x) ->
              flag target.pexp_loc ("Hashtbl " ^ x)
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it body

(* ---------- SRC012: module-level mutable state vs Mutex ---------- *)

let rec unconstrain e =
  match e.pexp_desc with Pexp_constraint (e, _) -> unconstrain e | _ -> e

let binding_name vb =
  let rec of_pat p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> of_pat p
    | _ -> None
  in
  of_pat vb.pvb_pat

let is_mutable_init e =
  match (unconstrain e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match lid_to_string txt with "ref" | "Hashtbl.create" -> true | _ -> false)
  | _ -> false

(* every module-level value binding in the file, including bindings
   inside [module M = struct ... end] — their state is just as global *)
let rec toplevel_bindings str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        toplevel_bindings s
      | _ -> [])
    str

let takes_mutex e =
  expr_contains_ident
    (fun s -> s = "Mutex.lock" || s = "Mutex.try_lock" || s = "Mutex.protect")
    e

let check_shared_state st str =
  if st.mentions_domain then begin
    let bindings = toplevel_bindings str in
    let mutables =
      List.filter_map
        (fun vb ->
          match binding_name vb with
          | Some n when is_mutable_init vb.pvb_expr -> Some n
          | _ -> None)
        bindings
    in
    if mutables <> [] then
      List.iter
        (fun vb ->
          let name = match binding_name vb with Some n -> n | None -> "<binding>" in
          let body = vb.pvb_expr in
          if not (is_mutable_init body) then
            List.iter
              (fun state_name ->
                if
                  expr_contains_ident (fun s -> s = state_name) body
                  && not (takes_mutex body)
                  && not (allowed st "SRC012")
                then
                  err st ~line:(line vb.pvb_loc) "SRC012"
                    (Printf.sprintf
                       "'%s' touches module-level mutable state '%s' in a module \
                        that spawns/uses domains without taking a Mutex; guard it \
                        or make it Atomic"
                       name state_name))
              mutables)
        bindings
  end

(* ---------- SRC013: the factor backends sit behind Pencil ---------- *)

let backend_modules = [ "Sparse.Skyline"; "Sparse.Supernodal" ]

let names_backend name =
  List.exists
    (fun m -> name = m || String.starts_with ~prefix:(m ^ ".") name)
    backend_modules

(* lib/sparse owns the backends and Pencil/Factor drive them; bench/
   studies compare backends and so stays out of scope *)
let backend_scoped path =
  (in_lib path || in_dir "bin" path)
  && (not (in_dir "sparse" path))
  && not
       (in_dir "core" path
       && List.mem (Filename.basename path) [ "pencil.ml"; "factor.ml" ])

let check_backend_ref st (lid : Longident.t Location.loc) =
  let name = lid_to_string lid.Location.txt in
  if names_backend name && backend_scoped st.path then
    err st ~line:(line lid.Location.loc) "SRC013"
      (Printf.sprintf
         "%s reaches a sparse factor backend directly; go through Sympvl.Pencil \
          (only lib/sparse and lib/core/{pencil,factor}.ml name the backends)"
         name)

(* ---------- main per-expression checks ---------- *)

let zero_float s = match float_of_string_opt s with Some 0.0 -> true | _ -> false

let is_nonzero_float_lit e =
  match (unconstrain e).pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> not (zero_float s)
  | _ -> false

let check_ident st loc lid =
  let name = lid_to_string lid in
  let l = line loc in
  if String.length name >= 4 && String.sub name 0 4 = "Obj." then
    err st ~line:l "SRC009" (Printf.sprintf "unsafe %s breaks the type system" name);
  if List.mem name clock_idents && not (in_dir "obs" st.path) then
    err st ~line:l "SRC001"
      (Printf.sprintf "%s outside lib/obs; use Obs.now so timing goes through one \
                       observable clock" name);
  if
    String.length name >= 7
    && String.sub name 0 7 = "Random."
    && not (is_rng st.path)
  then
    err st ~line:l "SRC002"
      (Printf.sprintf "%s uses ambient global PRNG state; use Linalg.Rng (seeded, \
                       splittable) instead" name);
  if name = "Domain.spawn" && not (in_dir "parallel" st.path) then
    err st ~line:l "SRC010"
      "Domain.spawn outside lib/parallel; route parallelism through Parallel.Pool \
       so job counts and determinism stay centralised";
  if name = "Thread.create" then
    err st ~line:l "SRC010" "Thread.create is banned; use Parallel.Pool domains";
  if name = "compare" && not st.has_own_compare then
    warn st ~line:l "SRC003"
      "bare polymorphic compare; use Int.compare / Float.compare / String.compare \
       or a typed comparator";
  if in_lib st.path then begin
    if List.mem name printer_idents then
      err st ~line:l "SRC007"
        (Printf.sprintf "%s prints from library code; use Logs or return \
                         Circuit.Diagnostic findings" name);
    if name = "exit" then
      err st ~line:l "SRC008" "exit from library code; only the CLI owns the exit code"
  end

let check_apply st loc lid args =
  let name = lid_to_string lid in
  let l = line loc in
  if List.mem name getenv_idents then begin
    let ok =
      match args with
      | (_, arg) :: _ -> (
        match (unconstrain arg).pexp_desc with
        | Pexp_constant (Pconst_string (s, _, _)) ->
          String.length s >= 6 && String.sub s 0 6 = "SYMOR_"
        | _ -> false)
      | [] -> false
    in
    if not ok then
      err st ~line:l "SRC011"
        (Printf.sprintf
           "%s must read a literal SYMOR_* variable so the environment contract \
            stays greppable" name)
  end;
  if name = "=" || name = "<>" then begin
    let float_lit = List.exists (fun (_, a) -> is_nonzero_float_lit a) args in
    if float_lit then
      warn st ~line:l "SRC003"
        "(in)equality against a non-zero float literal; compare with a tolerance \
         (exact-zero tests are exempt)"
  end;
  if is_parallel_call lid then begin
    match List.rev args with
    | (_, body) :: _ -> scan_parallel_body st body
    | [] -> ()
  end

let check_try st cases =
  List.iter
    (fun c ->
      match c.pc_lhs.ppat_desc with
      | Ppat_any ->
        warn st ~line:(line c.pc_lhs.ppat_loc) "SRC005"
          "catch-all 'with _ ->' swallows every exception (including Violation and \
           Out_of_memory); match specific exceptions or bind and reraise"
      | _ -> ())
    cases

(* ---------- driver ---------- *)

let defines_own_compare str =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match binding_name vb with
          | Some "compare" -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it str;
  !found

let file_allow_of_structure str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute a when a.attr_name.Location.txt = "srclint.allow" ->
        allow_codes_of_payload a.attr_payload
      | _ -> [])
    str

let contains_substring needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let run_rules ~path ~source str =
  let st =
    {
      path;
      findings = [];
      allow = [];
      file_allow = file_allow_of_structure str;
      has_own_compare = defines_own_compare str;
      mentions_domain = contains_substring "Domain." source;
    }
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          let codes = allow_codes_of_attrs e.pexp_attributes in
          st.allow <- codes :: st.allow;
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> check_ident st e.pexp_loc txt
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
            check_apply st pexp_loc txt args
          | Pexp_try (_, cases) -> check_try st cases
          | _ -> ());
          (match e.pexp_desc with
          | Pexp_ident lid
          | Pexp_construct (lid, _)
          | Pexp_field (_, lid)
          | Pexp_setfield (_, lid, _) ->
            check_backend_ref st lid
          | Pexp_record (fields, _) ->
            List.iter (fun (lid, _) -> check_backend_ref st lid) fields
          | _ -> ());
          Ast_iterator.default_iterator.expr self e;
          st.allow <- List.tl st.allow);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_construct (lid, _) | Ppat_type lid | Ppat_open (lid, _) ->
            check_backend_ref st lid
          | Ppat_record (fields, _) ->
            List.iter (fun (lid, _) -> check_backend_ref st lid) fields
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> check_backend_ref st lid
          | _ -> ());
          Ast_iterator.default_iterator.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with Pmod_ident lid -> check_backend_ref st lid | _ -> ());
          Ast_iterator.default_iterator.module_expr self m);
      module_type =
        (fun self m ->
          (match m.pmty_desc with
          | Pmty_ident lid | Pmty_alias lid -> check_backend_ref st lid
          | _ -> ());
          Ast_iterator.default_iterator.module_type self m);
      value_binding =
        (fun self vb ->
          let codes = allow_codes_of_attrs vb.pvb_attributes in
          st.allow <- codes :: st.allow;
          Ast_iterator.default_iterator.value_binding self vb;
          st.allow <- List.tl st.allow);
    }
  in
  it.structure it str;
  check_shared_state st str;
  List.stable_sort
    (fun a b ->
      let l = function Some l -> l | None -> 0 in
      Int.compare (l a.Diagnostic.line) (l b.Diagnostic.line))
    (List.rev st.findings)

let lint_source ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | str -> run_rules ~path ~source str
  | exception e ->
    [
      Diagnostic.error "SRC000"
        (Printf.sprintf "%s: parse error: %s" path (Printexc.to_string e));
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* SRC006 is a filesystem property, not an AST one *)
let mli_missing path =
  if
    in_lib path
    && Filename.check_suffix path ".ml"
    && not (Sys.file_exists (path ^ "i"))
  then
    Some
      (Diagnostic.warning "SRC006"
         (path ^ ": no interface file; every lib/ module must declare its surface \
                  in an .mli"))
  else None

let lint_file path =
  let ast_findings = lint_source ~path (read_file path) in
  match mli_missing path with
  | Some d -> d :: ast_findings
  | None -> ast_findings

let default_roots = [ "lib"; "bin"; "bench" ]

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let lint_tree roots =
  roots
  |> List.concat_map (fun root ->
         if Sys.file_exists root then ml_files_under root
         else (
           Printf.eprintf "srclint: warning: %s does not exist, skipping\n" root;
           []))
  |> List.map (fun f -> (f, lint_file f))
