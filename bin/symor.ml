(* symor — SyMPVL model-order-reduction command line.

   Subcommands:
     info    print netlist statistics, topology class and MNA matrix
             structure (size, nonzeros, bandwidth, structural rank)
     lint    static analysis: netlist defect report with rule codes,
             severities and source-line provenance
     analyze symbolic structure analysis of the assembled pencil:
             structural rank / Dulmage–Mendelsohn solvability, exact
             fill prediction and ordering recommendation (STR codes)
     reduce  run SyMPVL (or another engine), report stability and
             passivity, optionally certify (MOD001-MOD010) or
             synthesize an equivalent reduced netlist
     ac      exact AC sweep as CSV
     tran    transient simulation as CSV
     serve   persistent reduction/evaluation daemon (newline-delimited
             JSON over a Unix or TCP socket, content-hash cache with
             a Z(jw) point table; see README "Serving")
     request one-shot client for a running serve daemon *)

open Cmdliner

let verbose_arg =
  let doc = "Report the internal pipeline steps (factorisation fallbacks, shifts)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let netlist_arg =
  let doc = "SPICE-like netlist file (see Circuit.Parser for the grammar)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc)

let band_arg =
  let doc = "Target band LO,HI in Hz (guides the expansion shift)." in
  Arg.(value & opt (some (pair ~sep:',' float float)) None & info [ "band" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel AC engine (default: $(b,SYMOR_JOBS) if set, \
     else the machine's recommended domain count minus one; 1 runs sequentially). \
     Results are bitwise identical at every job count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function None -> () | Some j -> Parallel.set_jobs j

let trace_arg =
  let doc =
    "Record an execution trace (spans, counters, deflation/escalation events) and \
     write it to $(docv) in Chrome-trace JSON — load it in chrome://tracing or \
     ui.perfetto.dev. Tracing never changes results: pooled sweeps stay bitwise \
     identical at every job count."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT.json" ~doc)

let stats_arg =
  let doc =
    "Print an observability summary to stderr after the run: per-span call counts \
     and wall time, counters (deflations, factor nnz, flop estimates, AC points) \
     and gauges. See the README counter glossary."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* after a sanitized run (SYMOR_SAN=race,fp), recorded findings are a
   hard failure: report them in the shared diagnostic format on stderr
   and exit 2, the same contract as lint errors *)
let report_san () =
  match San.findings () with
  | [] -> ()
  | fs ->
    let ds =
      List.map
        (fun f ->
          Circuit.Diagnostic.error f.San.san_code f.San.san_message)
        fs
    in
    List.iter
      (fun d -> Format.eprintf "symor: sanitizer: %a@." Circuit.Diagnostic.pp d)
      ds;
    exit 2

(* enable tracing before the work, export/summarise after it. The
   stats table goes to stderr so it never corrupts CSV on stdout. *)
let with_obs trace stats f =
  if trace <> None || stats then Obs.enable ();
  let r = f () in
  Option.iter
    (fun path ->
      Obs.write_trace path;
      Printf.eprintf "trace written to %s\n%!" path)
    trace;
  if stats then prerr_string (Obs.stats_table ());
  (* also catches a misspelled SYMOR_SAN mode (SAN001): a run the user
     believed was sanitized but was not must not exit 0 *)
  report_san ();
  r

let order_arg =
  let doc = "Reduced order n." in
  Arg.(value & opt int (Ops.default Ops.Reduce).Ops.order & info [ "n"; "order" ] ~doc)

let default_engine = Sympvl.Rom.name (Ops.default Ops.Reduce).Ops.engine

let load path = Circuit.Parser.parse_file path

(* uniform CLI error reporting: a user-level problem (the Ops failure
   table: bad netlists and requests, unsupported engines, singular
   matrices) prints one line and exits 1. Anything else is a
   programming bug and surfaces with its backtrace. [f] hands the
   pencil it assembles to its argument, so a zero pivot names its
   unknown. *)
let safely ?op f =
  match Ops.guard ~spell:(fun field -> "--" ^ field) ?op f with
  | Ok v -> v
  | Error { Ops.message; _ } ->
    Printf.eprintf "symor: %s\n" message;
    exit 1
  | exception San.Violation msg ->
    (* a checked-pool race is a determinism bug, not a user error *)
    Printf.eprintf "symor: sanitizer: %s\n" msg;
    exit 2

let class_name nl =
  match Circuit.Netlist.classify nl with
  | `Rc -> "RC"
  | `Rl -> "RL"
  | `Lc -> "LC"
  | `Rlc -> "RLC"
  | `General -> "general (nonlinear/controlled)"

(* ------------------------------------------------------------------ *)

let info_cmd =
  let run path =
   safely @@ fun _ ->
    let nl = load path in
    Format.printf "%a@." Circuit.Netlist.pp_stats (Circuit.Netlist.stats nl);
    Format.printf "class: %s@." (class_name nl);
    Format.printf "ports: %s@."
      (String.concat ", "
         (List.map (fun p -> p.Circuit.Netlist.port_name) (Circuit.Netlist.ports nl)));
    if Circuit.Netlist.is_linear_rlc nl && Circuit.Netlist.port_count nl > 0 then begin
      let mna = Circuit.Mna.auto nl in
      Format.printf "MNA: %d unknowns (%d nodes), nnz(G) = %d, nnz(C) = %d@."
        mna.Circuit.Mna.n mna.Circuit.Mna.n_nodes
        (Sparse.Csr.nnz mna.Circuit.Mna.g)
        (Sparse.Csr.nnz mna.Circuit.Mna.c);
      let st = Analysis.Struct_rules.stats mna in
      Format.printf
        "structure: pattern nnz = %d, bandwidth = %d, profile = %d@."
        st.Analysis.Struct_rules.nnz_pencil st.Analysis.Struct_rules.bandwidth
        st.Analysis.Struct_rules.profile;
      Format.printf "structural rank: %d/%d%s@."
        st.Analysis.Struct_rules.struct_rank st.Analysis.Struct_rules.n
        (if st.Analysis.Struct_rules.struct_rank < st.Analysis.Struct_rules.n
         then " (SINGULAR for every element value — run symor analyze)"
         else "");
      if st.Analysis.Struct_rules.blocks > 1 then
        Format.printf "independent blocks: %d (largest %d)@."
          st.Analysis.Struct_rules.blocks
          st.Analysis.Struct_rules.largest_block;
      let ord = Analysis.Struct_rules.orderings mna in
      Format.printf
        "factor backends: RCM+skyline stores %d, AMD+supernodal %d \
         (predicted factor nnz — natural %d, RCM %d, AMD %d); plan picks %s@."
        ord.Analysis.Struct_rules.skyline_stored
        ord.Analysis.Struct_rules.supernodal_stored
        ord.Analysis.Struct_rules.natural_nnz ord.Analysis.Struct_rules.rcm_nnz
        ord.Analysis.Struct_rules.amd_nnz
        (Analysis.Struct_rules.backend_name ord.Analysis.Struct_rules.backend_pick);
      let so = Circuit.Mna.second_order_stats nl in
      Format.printf
        "second-order: %s; inductor loops = %d; coupling density = %.3f@."
        so.Circuit.Mna.chosen_form so.Circuit.Mna.inductor_loops
        so.Circuit.Mna.coupling_density
    end
  in
  let doc = "Print netlist statistics." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ netlist_arg)

let print_diagnostics ?(quiet = false) ds =
  List.iter
    (fun d ->
      if (not quiet) || d.Circuit.Diagnostic.severity <> Circuit.Diagnostic.Info then
        Format.printf "%a@." Circuit.Diagnostic.pp d)
    ds

(* the flags shared by the finding reports (lint, analyze, certify) *)
let json_arg =
  let doc = "Emit the findings as a JSON array (machine-readable)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let strict_arg =
  let doc = "Treat warnings as errors for the exit code." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let quiet_arg =
  let doc = "Suppress info-level findings in the text output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

(* the closing line of a text report: [clean] with the info count, or
   the error/warning tally *)
let print_summary ~clean ds =
  let count sev = Circuit.Diagnostic.count sev ds in
  let e = count Circuit.Diagnostic.Error and w = count Circuit.Diagnostic.Warning in
  if e = 0 && w = 0 then Format.printf "%s (%d info)@." clean (count Circuit.Diagnostic.Info)
  else Format.printf "%d error(s), %d warning(s)@." e w

(* a netlist-level report (lint, analyze): JSON, or the findings under
   the file name plus the summary line; exits with the 0/1/2 contract *)
let report_file ~json ~strict ~quiet ~clean path ds =
  if json then print_string (Circuit.Diagnostic.list_to_json ds ^ "\n")
  else begin
    Format.printf "%s:@." path;
    print_diagnostics ~quiet ds;
    print_summary ~clean ds
  end;
  exit (Circuit.Diagnostic.exit_code ~strict ds)

let lint_cmd =
  let run path json strict quiet =
   safely @@ fun _ ->
    report_file ~json ~strict ~quiet ~clean:"clean" path (Analysis.Lint.lint_file path)
  in
  let doc =
    "Statically analyse a netlist: floating nodes, bad ports, duplicate names, \
     value and coupling defects, V/L loops and capacitor cutsets, MOR-class \
     violations, and the structural RC/RL/LC/RLC classification. Exit code: 0 \
     clean, 1 warnings only, 2 errors (or warnings under $(b,--strict))."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ netlist_arg $ json_arg $ strict_arg $ quiet_arg)

let analyze_cmd =
  let fill_arg =
    let doc =
      "Fill blow-up threshold for STR005: warn when the best ordering's \
       predicted factor nonzeros exceed this multiple of the pencil's \
       lower-triangle nonzeros."
    in
    Arg.(value & opt float 10.0 & info [ "fill-threshold" ] ~docv:"X" ~doc)
  in
  let run path json strict quiet fill_threshold =
   safely @@ fun _ ->
    report_file ~json ~strict ~quiet ~clean:"structurally sound" path
      (Analysis.Struct_rules.analyze_file ~fill_threshold path)
  in
  let doc =
    "Symbolically analyse the assembled MNA pencil G + sC: structural rank via \
     maximum transversal (STR001), Dulmage–Mendelsohn under-/over-determined \
     blocks (STR002/STR003), DC-expansion usability (STR004), exact \
     elimination-tree fill prediction with an ordering recommendation \
     (STR005/STR006), block decoupling (STR007) and a structure summary \
     (STR008). Works on the sparsity pattern only — defects found here hold \
     for every choice of element values. Exit code: 0 sound, 1 warnings only, \
     2 errors (or warnings under $(b,--strict))."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ netlist_arg $ json_arg $ strict_arg $ quiet_arg $ fill_arg)

(* one certification report: its findings, then the suggested safe
   order when the band search found one *)
let print_report ?quiet (rep : Sympvl.Certify.report) =
  print_diagnostics ?quiet rep.Sympvl.Certify.findings;
  Option.iter (Format.printf "  suggested safe order: %d@.") rep.Sympvl.Certify.safe_order

let certify_cmd =
  let engine_arg =
    let doc =
      "Engine to certify: $(b,sympvl) (default), $(b,prima), $(b,sprim), \
       $(b,bt), or $(b,all) to sweep every engine that supports the netlist."
    in
    Arg.(value & opt string default_engine & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let order_arg =
    let doc =
      "Reduced order to certify (0 = auto: the full pencil size, so the \
       checks become theorem tests)."
    in
    Arg.(value & opt int (Ops.default Ops.Certify).Ops.order & info [ "n"; "order" ] ~doc)
  in
  let shift_arg =
    let doc =
      "Explicit expansion shift s0. A nonzero shift leaves the certified \
       regime — MOD008 reports it."
    in
    Arg.(value & opt (some float) None & info [ "shift" ] ~docv:"S0" ~doc)
  in
  let run path engine order shift band json strict quiet jobs trace stats =
   safely ~op:Ops.Certify @@ fun seen ->
    apply_jobs jobs;
    (* exit only after with_obs has written the trace and stats *)
    let code =
      with_obs trace stats @@ fun () ->
      let engines = if engine = "all" then Sympvl.Rom.all else [ Ops.engine engine ] in
      let r = Ops.check { (Ops.default Ops.Certify) with Ops.order; shift; band } in
      let mna = Circuit.Mna.auto (load path) in
      seen mna;
      let findings = ref [] in
      List.iter
        (fun eng ->
          match Sympvl.Rom.supports eng mna with
          | Error why ->
            if not json then
              Format.printf "%s: skipping %s (unsupported: %s)@." (Sympvl.Rom.name eng)
                path why
          | Ok () ->
            let r = { r with Ops.engine = eng } in
            let ctx = Sympvl.Pencil.create mna in
            let model = Ops.model ~ctx r mna in
            let rep = Ops.certify ~ctx r model mna in
            findings := !findings @ rep.Sympvl.Certify.findings;
            if not json then begin
              Format.printf "%s:@." (Sympvl.Rom.name eng);
              print_report ~quiet rep
            end)
        engines;
      let ds = !findings in
      if json then print_string (Circuit.Diagnostic.list_to_json ds ^ "\n")
      else print_summary ~clean:"certified clean" ds;
      Circuit.Diagnostic.exit_code ~strict ds
    in
    exit code
  in
  let doc =
    "Certify a reduced model (MOD001-MOD010): pole stability, the structural \
     passivity certificate, the Hamiltonian imaginary-axis passivity test \
     (locates violation bands a sampling grid misses), reciprocity, moment \
     matching against the exact pencil, DC exactness, shift-regime and drift \
     checks, and the backward residual of the factor the model was built \
     from. Every engine goes through the same state-space adapter, so \
     $(b,--engine all) compares them uniformly. Exit code: 0 clean, 1 \
     warnings only, 2 errors (or warnings under $(b,--strict))."
  in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(
      const run $ netlist_arg $ engine_arg $ order_arg $ shift_arg $ band_arg
      $ json_arg $ strict_arg $ quiet_arg $ jobs_arg $ trace_arg $ stats_arg)

(* the band the adaptive order search sweeps: --band, else the default
   AC sweep band *)
let sweep_band band =
  let d = Ops.default Ops.Ac in
  Option.value band ~default:(d.Ops.flo, d.Ops.fhi)

let reduce_cmd =
  let shift_arg =
    let doc =
      "Explicit expansion shift s0 (in the pencil variable). Disables the automatic \
       singular-G retry: a singular factorisation at an explicit shift is an error."
    in
    Arg.(value & opt (some float) None & info [ "shift" ] ~docv:"S0" ~doc)
  in
  let engine_arg =
    let doc =
      "Reduction engine: $(b,sympvl) (default), $(b,prima), $(b,sprim) or $(b,bt). Pass $(b,help) to list the engines with their \
       guarantees. Every engine reports size/shift and the MOD002/MOD001 \
       stability and passivity findings; --adaptive stays SyMPVL-only, \
       --synth works for sympvl (RC, RLC) and sprim (RLCk)."
    in
    Arg.(value & opt string default_engine & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let synth_arg =
    let doc = "Write a synthesized reduced netlist to $(docv)." in
    Arg.(value & opt (some string) None & info [ "synth" ] ~docv:"OUT" ~doc)
  in
  let poles_arg =
    let doc = "Print the reduced-model poles." in
    Arg.(value & flag & info [ "poles" ] ~doc)
  in
  let synthesize ~port_names out model =
    let syn, summary =
      match model with
      | Sympvl.Rom.Sympvl_model m
        when m.Sympvl.Model.p = 1 && m.Sympvl.Model.definite && m.Sympvl.Model.shift = 0.0 ->
        let n, s = Synth.Foster.synthesize m in
        ( n,
          Printf.sprintf "%d R, %d C (%d negative)" s.Synth.Foster.resistors
            s.Synth.Foster.capacitors s.Synth.Foster.negative_elements )
      | Sympvl.Rom.Sympvl_model m ->
        let n, s = Synth.Multiport.synthesize ~port_names m in
        ( n,
          Printf.sprintf "%d nodes, %d R, %d C (%d negative)" s.Synth.Multiport.nodes
            s.Synth.Multiport.resistors s.Synth.Multiport.capacitors
            s.Synth.Multiport.negative_elements )
      | Sympvl.Rom.Sprim_model sp ->
        let n, st = Synth.Rlck.synthesize ~port_names sp in
        ( n,
          Printf.sprintf "%d nodes, %d R, %d C, %d L (%d negative)" st.Synth.Rlck.nodes
            st.Synth.Rlck.resistors st.Synth.Rlck.capacitors st.Synth.Rlck.inductors
            st.Synth.Rlck.negative_elements )
      | _ -> invalid_arg "synthesize: other engines are rejected before the reduction"
    in
    let oc = open_out out in
    output_string oc (Circuit.Parser.to_string ~precision:17 syn);
    close_out oc;
    Format.printf "synthesized: %s -> %s@." summary out
  in
  let run verbose path order band shift engine synth_out poles certify strict adaptive
      jobs trace stats =
    (if engine = "help" then begin
       List.iter
         (fun e -> Printf.printf "%-8s %s\n" (Sympvl.Rom.name e) (Sympvl.Rom.describe e))
         Sympvl.Rom.all;
       Printf.printf
         "\nEvery claim above is checkable on the model an engine actually \
          produced:\n`symor certify <netlist> --engine <name>` (or `reduce \
          --certify`) runs the\nMOD001-MOD010 certification pass.\n";
       exit 0
     end);
   safely ~op:Ops.Reduce @@ fun seen ->
    setup_logs verbose;
    apply_jobs jobs;
    with_obs trace stats @@ fun () ->
    let r =
      Ops.check
        { (Ops.default Ops.Reduce) with Ops.engine = Ops.engine engine; order; shift; band }
    in
    let eng = r.Ops.engine in
    if eng <> `Sympvl && (adaptive <> None || (synth_out <> None && eng <> `Sprim)) then begin
      Printf.eprintf
        "symor: --adaptive is SyMPVL-only; --synth needs --engine sympvl (RC, RLC) \
         or sprim (RLCk)\n";
      exit 1
    end;
    let mna = Circuit.Mna.auto (load path) in
    seen mna;
    if synth_out <> None && eng = `Sympvl && mna.Circuit.Mna.gain <> Circuit.Mna.Unit then
      Circuit.Diagnostic.user_errorf
        "--synth needs an RC or RLC netlist: %s assembles in the RL or LC form, whose Z(s) \
         carries a factor s"
        path;
    match Sympvl.Rom.supports eng mna with
    | Error why ->
      (* skipped with exit 0, so a matrix loop over examples × engines
         stays a one-liner *)
      Format.printf "%s: skipping %s (unsupported: %s)@." (Sympvl.Rom.name eng) path why
    | Ok () ->
      (* one context per run: the reduction and the --certify pass share
         its symbolic phase and factor cache *)
      let ctx = Sympvl.Pencil.create mna in
      let model =
        match adaptive with
        | None -> Ops.model ~ctx r mna
        | Some tol ->
          let opts = { (Sympvl.Reduce.default ~order) with Sympvl.Reduce.band; shift } in
          let m, dev =
            Sympvl.Reduce.to_accuracy ~ctx ~opts ~max_order:order ~tol ~band:(sweep_band band)
              mna
          in
          Format.printf "adaptive: converged at order %d (estimate %.2e)@." m.Sympvl.Model.order
            dev;
          Sympvl.Rom.Sympvl_model m
      in
      (match model with
      | Sympvl.Rom.Sympvl_model m ->
        Format.printf "SyMPVL: N = %d -> n = %d (p = %d)@." mna.Circuit.Mna.n
          m.Sympvl.Model.order m.Sympvl.Model.p;
        Format.printf "definite (J = I): %b; shift s0 = %g; deflations = %d@."
          m.Sympvl.Model.definite m.Sympvl.Model.shift m.Sympvl.Model.deflations
      | _ ->
        Format.printf "%s: N = %d -> n = %d (p = %d); shift s0 = %g@." (Sympvl.Rom.name eng)
          mna.Circuit.Mna.n (Sympvl.Rom.order model) (Sympvl.Rom.ports model)
          (Sympvl.Rom.shift model));
      print_diagnostics (Sympvl.Certify.structural model mna);
      if poles then begin
        Format.printf "poles:@.";
        Array.iter
          (fun p -> Format.printf "  %+.6e %+.6ei@." p.Complex.re p.Complex.im)
          (Sympvl.Realisation.poles (Sympvl.Rom.realisation model))
      end;
      let cert_exit =
        if not certify then 0
        else begin
          let rep = Ops.certify ~ctx r model mna in
          Format.printf "certification:@.";
          print_report rep;
          Circuit.Diagnostic.exit_code ~strict rep.Sympvl.Certify.findings
        end
      in
      Option.iter
        (fun out -> synthesize ~port_names:mna.Circuit.Mna.port_names out model)
        synth_out;
      if cert_exit > 0 then exit cert_exit
  in
  let certify_arg =
    let doc =
      "Run the full MOD001-MOD010 certification pass on the reduced model \
       (see $(b,symor certify)); findings print under \"certification:\" and \
       escalate the exit code like a standalone certify run."
    in
    Arg.(value & flag & info [ "certify" ] ~doc)
  in
  let strict_arg =
    let doc = "With $(b,--certify): treat warnings as errors for the exit code." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let adaptive_arg =
    let doc =
      "Pick the order adaptively: grow until successive models agree to this \
       relative tolerance on the band ($(b,--order) becomes the cap)."
    in
    Arg.(value & opt (some float) None & info [ "adaptive" ] ~docv:"TOL" ~doc)
  in
  let doc = "Reduce a netlist (SyMPVL by default; see --engine for the full registry)." in
  Cmd.v (Cmd.info "reduce" ~doc)
    Term.(
      const run $ verbose_arg $ netlist_arg $ order_arg $ band_arg $ shift_arg
      $ engine_arg $ synth_arg $ poles_arg $ certify_arg $ strict_arg
      $ adaptive_arg $ jobs_arg $ trace_arg $ stats_arg)

(* `ac` and `sparams`: one exact sweep behind both; [print r sw]
   writes the CSV. [z0] is the sparams flag (a constant for ac). *)
let sweep_cmd name op ~doc z0 print =
  let d = Ops.default op in
  let points_arg =
    Arg.(value & opt int d.Ops.points & info [ "points" ] ~doc:"Number of frequency points.")
  in
  let flo_arg = Arg.(value & opt float d.Ops.flo & info [ "flo" ] ~doc:"Start frequency, Hz.") in
  let fhi_arg = Arg.(value & opt float d.Ops.fhi & info [ "fhi" ] ~doc:"Stop frequency, Hz.") in
  let run path flo fhi points z0 jobs trace stats =
   safely ~op @@ fun seen ->
    apply_jobs jobs;
    with_obs trace stats @@ fun () ->
    let r = Ops.check { d with Ops.flo; fhi; points; z0 } in
    let mna = Circuit.Mna.auto (load path) in
    seen mna;
    print r (Simulate.Ac.sweep mna (Ops.freqs r))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ netlist_arg $ flo_arg $ fhi_arg $ points_arg $ z0 $ jobs_arg $ trace_arg
      $ stats_arg)

let ac_cmd =
  sweep_cmd "ac" Ops.Ac ~doc:"Exact AC sweep (CSV on stdout)."
    (Term.const (Ops.default Ops.Ac).Ops.z0)
    (fun _ sw ->
      let p = Array.length sw.Simulate.Ac.port_names in
      print_string "freq";
      for i = 0 to p - 1 do
        for j = 0 to p - 1 do
          Printf.printf ",|Z_%s_%s|" sw.Simulate.Ac.port_names.(i)
            sw.Simulate.Ac.port_names.(j)
        done
      done;
      print_newline ();
      Array.iteri
        (fun k f ->
          Printf.printf "%.6e" f;
          for i = 0 to p - 1 do
            for j = 0 to p - 1 do
              Printf.printf ",%.6e"
                (Linalg.Cx.abs (Linalg.Cmat.get sw.Simulate.Ac.z.(k) i j))
            done
          done;
          print_newline ())
        sw.Simulate.Ac.freqs)

let sparams_cmd =
  let z0_arg =
    Arg.(
      value
      & opt float (Ops.default Ops.Sparams).Ops.z0
      & info [ "z0" ] ~doc:"Reference impedance, ohms.")
  in
  sweep_cmd "sparams" Ops.Sparams ~doc:"Exact S-parameter sweep (CSV on stdout)." z0_arg
    (fun r sw ->
      let p = Array.length sw.Simulate.Ac.port_names in
      print_string "freq";
      for i = 0 to p - 1 do
        for j = 0 to p - 1 do
          Printf.printf ",|S%d%d|,arg(S%d%d)" (i + 1) (j + 1) (i + 1) (j + 1)
        done
      done;
      print_newline ();
      Array.iteri
        (fun k f ->
          let s = Simulate.Netparams.z_to_s ~z0:r.Ops.z0 sw.Simulate.Ac.z.(k) in
          Printf.printf "%.6e" f;
          for i = 0 to p - 1 do
            for j = 0 to p - 1 do
              let v = Linalg.Cmat.get s i j in
              Printf.printf ",%.6e,%.6e" (Linalg.Cx.abs v) (Complex.arg v)
            done
          done;
          print_newline ())
        sw.Simulate.Ac.freqs)

let tran_cmd =
  let d = Ops.default Ops.Tran in
  let dt_arg = Arg.(value & opt float d.Ops.dt & info [ "dt" ] ~doc:"Time step, s.") in
  let tstop_arg = Arg.(value & opt float d.Ops.t_stop & info [ "tstop" ] ~doc:"Stop time, s.") in
  let observe_arg =
    let doc = "Comma-separated node names to record." in
    Arg.(required & opt (some (list string)) None & info [ "observe" ] ~doc)
  in
  let run path dt t_stop observe =
   safely ~op:Ops.Tran @@ fun _ ->
    let r = Ops.check { d with Ops.dt; t_stop; observe } in
    let res = Ops.tran r (load path) in
    Printf.printf "time,%s\n" (String.concat "," observe);
    Array.iteri
      (fun k t ->
        Printf.printf "%.6e" t;
        List.iter
          (fun (_, wave) -> Printf.printf ",%.6e" wave.(k))
          res.Simulate.Transient.voltages;
        print_newline ())
      res.Simulate.Transient.times
  in
  let doc = "Transient simulation (CSV on stdout)." in
  Cmd.v (Cmd.info "tran" ~doc)
    Term.(const run $ netlist_arg $ dt_arg $ tstop_arg $ observe_arg)

(* ------------------------------------------------------------------ *)
(* serve / request: the daemon and its one-shot client                 *)

let socket_arg =
  let doc = "Serve on (or connect to) a Unix socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Serve on (or connect to) TCP port $(docv)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N" ~doc)

let host_arg =
  let doc = "Host for $(b,--port) (bind address / connect target)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let resolve_addr socket port host : Serve.Protocol.addr =
  match (socket, port) with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp (host, p)
  | Some _, Some _ ->
    Printf.eprintf "symor: --socket and --port are mutually exclusive\n";
    exit 2
  | None, None ->
    Printf.eprintf "symor: pass --socket PATH or --port N\n";
    exit 2

let serve_cmd =
  let entries_arg =
    let doc =
      "Cache bound: distinct netlists kept resident (parsed netlist, shared \
       pencil context, reduced models, evaluated AC points). Least recently \
       used entries are evicted past the bound; entries pinned by an in-flight \
       request are dropped only once it completes."
    in
    Arg.(value & opt int 64 & info [ "cache-entries" ] ~docv:"N" ~doc)
  in
  let run socket port host entries jobs stats =
   safely @@ fun _ ->
    apply_jobs jobs;
    let addr = resolve_addr socket port host in
    let cfg =
      { (Serve.Server.default_config addr) with Serve.Server.max_entries = entries }
    in
    (* the daemon records its spans/counters so /stats and per-request
       "trace":true subtrees have data; buffers are truncated per batch *)
    Serve.Server.run
      ~on_ready:(fun () ->
        Printf.eprintf "symor: serving on %s\n%!" (Serve.Protocol.addr_to_string addr))
      cfg;
    if stats then prerr_string (Obs.stats_table ());
    report_san ()
  in
  let doc =
    "Persistent reduction/evaluation daemon. Speaks newline-delimited JSON \
     (one request per line, one response per line — malformed lines \
     included) over a Unix or TCP socket. Caches netlist -> parsed -> pencil \
     context -> reduced model -> Z(jw) point by content hash; the point \
     table is the one reuse layer for AC, and every response depends only \
     on its own request. SIGTERM (or a \
     $(b,shutdown) request) drains in-flight requests, then exits 0. See \
     README \"Serving\" for the protocol."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ entries_arg $ jobs_arg $ stats_arg)

let request_cmd =
  let lines_arg =
    let doc =
      "Request lines (JSON objects) to send, in order. Without positional \
       requests, lines are read from stdin. Lines are forwarded verbatim — \
       including malformed ones, which the daemon answers with a structured \
       error."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc)
  in
  let timeout_arg =
    let doc = "Seconds to keep retrying the initial connection." in
    Arg.(value & opt float 10.0 & info [ "connect-timeout" ] ~docv:"S" ~doc)
  in
  let run socket port host timeout lines =
   safely @@ fun _ ->
    let addr = resolve_addr socket port host in
    let c = Serve.Client.connect ~deadline_s:timeout addr in
    let lines =
      if lines <> [] then lines
      else
        let rec slurp acc =
          match input_line stdin with
          | line -> slurp (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        slurp []
    in
    (* exit with the worst per-response "status" (the daemon's 0/1/2
       contract); an unreadable response counts as an error *)
    let worst = ref 0 in
    List.iter
      (fun line ->
        match Serve.Client.request c line with
        | None ->
          Printf.eprintf "symor: connection closed by daemon\n";
          worst := 2
        | Some resp ->
          print_endline resp;
          let status =
            match Serve.Json.parse resp with
            | j -> (
              match Serve.Json.to_int_opt (Serve.Json.member "status" j) with
              | Some s -> s
              | None -> 2)
            | exception Serve.Json.Parse_error _ -> 2
          in
          if status > !worst then worst := status)
      lines;
    Serve.Client.close c;
    exit !worst
  in
  let doc =
    "Send request lines to a running $(b,symor serve) daemon and print the \
     response lines. Exit code is the worst $(b,status) field across the \
     responses (the daemon's 0/1/2 contract)."
  in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(const run $ socket_arg $ port_arg $ host_arg $ timeout_arg $ lines_arg)

let () =
  Printexc.record_backtrace true;
  let doc = "SyMPVL reduced-order modeling of linear passive multi-ports" in
  let main = Cmd.group (Cmd.info "symor" ~version:"1.0.0" ~doc)
      [ info_cmd; lint_cmd; analyze_cmd; reduce_cmd; certify_cmd; ac_cmd; sparams_cmd;
        tran_cmd; serve_cmd; request_cmd ]
  in
  exit (Cmd.eval main)
