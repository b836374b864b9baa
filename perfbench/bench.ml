(* Repository benchmark: three workloads, each run in its own process.

     bench.exe --workload grid_rc|peec_rlck|serve_corners --seed N
               --seconds S --trace 0|1 [--symor PATH]

   Diagnostics go to stderr; the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}. --trace 0 times the end-to-end
   metrics with Obs off. --trace 1 is a separate run that wraps every
   public layer call in a benchmark span and reports the per-layer
   metrics. Exit status: 0 when every correctness gate holds, 1 when one
   fails (the JSON line is still printed), 2 on bad arguments.
   perfbench/README.md defines every metric; [end_to_end] and
   [per_layer] below mirror BENCHMARK.json. *)

module Json = Serve.Json
module Mna = Circuit.Mna
module Rom = Sympvl.Rom

let end_to_end =
  [
    ("setup_s", "s"); ("model_s", "s"); ("certified_model_s", "s"); ("ac_points_per_s", "1/s");
    ("ok_frac", "ratio"); ("peak_rss_mb", "MB"); ("warm_p50_ms", "ms"); ("warm_tail_ms", "ms");
    ("req_per_s", "1/s");
  ]

let layer_names = [ "circuit"; "pencil"; "factor"; "krylov"; "certify"; "ac"; "rom" ]

let per_layer =
  [
    ("circuit.parse_s", "s"); ("circuit.assemble_s", "s"); ("pencil.create_s", "s");
    ("pencil.factor_nnz", "count"); ("pencil.cache_hit_ratio", "ratio"); ("factor.real_s", "s");
    ("factor.fallback_dense", "count"); ("krylov.reduce_s", "s"); ("krylov.order", "count");
    ("lanczos.order", "count"); ("sprim.krylov_cols", "count"); ("certify.run_s", "s");
    ("certify.hamiltonian_s", "s"); ("certify.moments_s", "s"); ("certify.non_info", "count");
    ("ac.sweep_s", "s"); ("ac.point_s", "s"); ("ac.factor_complex_s", "s"); ("ac.solve_s", "s");
    ("ac.failed_points", "count"); ("parallel.ac_speedup", "ratio"); ("rom.eval_s", "s");
    ("serve.hit_ratio", "ratio"); ("serve.point_hit_ratio", "ratio"); ("serve.evictions", "count");
    ("serve.ctx_hit_ms", "ms"); ("serve.cold_p50_ms", "ms"); ("serve.cold_tail_ms", "ms");
    ("serve.daemon_s", "s"); ("serve.wait_s", "s"); ("unattributed_s", "s");
    ("obs.overhead_ratio", "ratio"); ("accuracy.model_err", "ratio");
  ]
  @ List.map (fun l -> (l ^ ".alloc_mw", "Mword")) layer_names

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type args = { workload : string; seed : int; seconds : int; trace : bool; symor : string }

let usage () =
  prerr_endline
    "usage: bench.exe --workload grid_rc|peec_rlck|serve_corners --seed N --seconds S \
     --trace 0|1 [--symor PATH]";
  exit 2

let parse_args () =
  let a = Sys.argv in
  let get name =
    let rec go i =
      if i + 1 >= Array.length a then None else if a.(i) = name then Some a.(i + 1) else go (i + 1)
    in
    go 1
  in
  let int name ~default =
    match get name with
    | None -> default
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> usage ())
  in
  let trace = match int "--trace" ~default:0 with 0 -> false | 1 -> true | _ -> usage () in
  let seconds = int "--seconds" ~default:30 in
  if seconds < 1 then usage ();
  {
    workload = (match get "--workload" with Some w -> w | None -> usage ());
    seed = int "--seed" ~default:1;
    seconds;
    trace;
    symor = Option.value ~default:"_build/default/bin/symor.exe" (get "--symor");
  }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* the highest order statistic with at least ten samples above it, and
   its percentile rank (reported as metadata, never as a metric) *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then (nan, nan) else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let sum = List.fold_left ( +. ) 0.0

(* "n/p10/p50/p90/max" of a sample, for the diagnostics on stderr *)
let spread_meta xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then "-"
  else
    let q p = a.(min (n - 1) (int_of_float (p *. float_of_int n))) in
    Printf.sprintf "n=%d p10=%.4g p50=%.4g p90=%.4g max=%.4g" n (q 0.1) (q 0.5) (q 0.9) a.(n - 1)

(* ------------------------------------------------------------------ *)
(* Timing, allocation and benchmark spans                              *)

let now = Obs.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* full major collection and compaction between repetitions, outside
   every timed region, so each repetition starts from a compact heap *)
let quiesce () = Gc.compact ()

type layer = { mutable secs : float; mutable mwords : float }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 16

let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* [call name f] is one call into a public layer function. Untraced it
   only runs [f]. Traced it opens the benchmark span [bench.<name>] and
   charges wall time and allocated words (calling domain) to [name],
   also when [f] raises. Only ever called from the main domain. *)
let call name f =
  if not (Obs.tracing ()) then f ()
  else begin
    let l =
      match Hashtbl.find_opt layers name with
      | Some l -> l
      | None ->
        let l = { secs = 0.0; mwords = 0.0 } in
        Hashtbl.add layers name l;
        l
    in
    let w0 = words () and t0 = now () in
    Obs.span_begin ("bench." ^ name);
    Fun.protect
      ~finally:(fun () ->
        Obs.span_end ();
        l.secs <- l.secs +. (now () -. t0);
        l.mwords <- l.mwords +. ((words () -. w0) /. 1e6))
      f
  end

(* a layer's total over its calls: [circuit] sums circuit.parse and
   circuit.assemble *)
let layer_sum prefix f =
  Hashtbl.fold
    (fun name l acc ->
      if name = prefix || String.starts_with ~prefix:(prefix ^ ".") name then acc +. f l else acc)
    layers 0.0

let span_total name =
  List.fold_left
    (fun acc s -> if s.Obs.span_name = name then acc +. s.Obs.total_s else acc)
    0.0 (Obs.span_stats ())

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* Linear-time netlist writer ([Circuit.Parser.to_string] looks every
   node name up in a list rebuilt per call). The topology comes from
   the generator and is the same for every seed; corner [k] of a seed
   scales every R, L and C by its own factor in [0.9, 1.1] and every k
   by one in [0.95, 1.05], which keeps ℒ diagonally dominant. Nodes are
   written by index. *)
let corner_text nl ~seed ~corner =
  let st = Linalg.Rng.create ((seed * 1_000_003) + corner) in
  let jit w v = v *. Linalg.Rng.uniform st (1.0 -. w) (1.0 +. w) in
  let b = Buffer.create (1 lsl 20) in
  let nd n = if n = 0 then "0" else "n" ^ string_of_int n in
  let card name x y v = Printf.bprintf b "%s %s %s %.17g\n" name x y v in
  List.iter
    (function
      | Circuit.Netlist.Resistor { name; n1; n2; ohms } -> card name (nd n1) (nd n2) (jit 0.1 ohms)
      | Capacitor { name; n1; n2; farads } -> card name (nd n1) (nd n2) (jit 0.1 farads)
      | Inductor { name; n1; n2; henries } -> card name (nd n1) (nd n2) (jit 0.1 henries)
      | Mutual { name; l1; l2; k } -> card name l1 l2 (jit 0.05 k)
      | e -> invalid_arg ("corner_text: " ^ Circuit.Netlist.element_name e))
    (Circuit.Netlist.elements nl);
  List.iter
    (fun (p : Circuit.Netlist.port) ->
      Printf.bprintf b ".port %s %s %s\n" p.port_name (nd p.plus) (nd p.minus))
    (Circuit.Netlist.ports nl);
  Buffer.contents b

let jw f = Linalg.Cx.im (2.0 *. Float.pi *. f)

let rel_err z_ref z = Linalg.Cmat.dist_max z_ref z /. Float.max (Linalg.Cmat.max_abs z_ref) 1e-300

(* ------------------------------------------------------------------ *)
(* Gates and the result line                                           *)

let failures : string list ref = ref []

let fail msg = failures := msg :: !failures

(* a correctness gate [value <= limit], reported with its value *)
let gate what value limit =
  if not (value <= limit) then fail (Printf.sprintf "%s = %.6g (limit %.6g)" what value limit)

(* Print the result line for this mode's declared metrics, in declared
   order; a declared metric the run did not produce, or an undeclared
   one, fails the run. *)
let emit ~declared ~attempted ~failed ~meta values =
  List.iter
    (fun (name, _) -> if not (List.mem_assoc name declared) then fail ("undeclared metric " ^ name))
    values;
  let metric (name, unit_) =
    match List.assoc_opt name values with
    | Some v when Float.is_finite v ->
      Some (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ])
    | _ ->
      fail ("metric not measured: " ^ name);
      None
  in
  let metrics = List.filter_map metric declared in
  List.iter (fun (k, v) -> Printf.eprintf "meta %s = %s\n" k v) meta;
  List.iter (fun f -> Printf.eprintf "GATE FAILED: %s\n" f) (List.rev !failures);
  flush stderr;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failures = []));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]));
  exit (if !failures = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* In-process pipeline (grid_rc, peec_rlck; serve_corners' breakdown)  *)

type spec = {
  label : string;
  netlist : Circuit.Netlist.t Lazy.t;
  engine : Rom.engine;
  order : int;
  freqs : float array;  (** exact jω sweep; every eighth point is a warm query *)
  dc_exact : bool;  (** exact Z(0) through [Moments.exact] as well *)
  err_tol : float;  (** gate on the model's relative error vs exact *)
  reps : int;  (** measured cold requests per 30 s of --seconds *)
  setups : int;  (** extra set-up-only samples per 30 s *)
  exact_repeats : int;  (** exact analyses per cold request *)
  warm_queries : int;  (** warm queries per cold request *)
}

(* sample counts scale with --seconds and nothing else, so two runs with
   the same arguments do the same amount of work *)
let scaled a n = max 3 (int_of_float (Float.round (float_of_int (n * a.seconds) /. 30.0)))

let text w a k = corner_text (Lazy.force w.netlist) ~seed:a.seed ~corner:k

let jobs = 2

let warm_grid w = Array.init (Array.length w.freqs / 8) (fun k -> w.freqs.(8 * k))

let ok_count pts = Array.fold_left (fun n p -> match p with Ok _ -> n + 1 | Error _ -> n) 0 pts

(* Exact points over a pool of [jobs] domains; each point's failure is
   kept, not dropped. The pool lives for this sweep only (its start-up
   is timed with it): an idle worker domain left running slows every
   later allocation-heavy layer through the stop-the-world minor GC
   (grid_rc certify measured 1.4 s without one, 2.4-2.9 s with one, on
   a 2-vCPU Xeon VM).
   Called from the main domain only. *)
let sweep ~jobs mna ctx freqs =
  call "ac" (fun () ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.parallel_map pool (Array.length freqs) (fun k ->
              try Ok (Simulate.Ac.z_at_ws mna ctx (jw freqs.(k))) with e -> Error e)))

(* netlist text -> parse -> MNA -> pencil context *)
let setup text =
  let nl = call "circuit.parse" (fun () -> Circuit.Parser.parse_string text) in
  let mna = call "circuit.assemble" (fun () -> Mna.auto nl) in
  let ctx = call "pencil.create" (fun () -> Sympvl.Pencil.create mna) in
  (mna, ctx)

(* text -> reduced model: set-up, the real factorisation the engine then
   finds memoized in the context, and the Krylov reduction *)
let build w text =
  let (mna, ctx), setup_s = timed (fun () -> setup text) in
  let model, rest_s =
    timed (fun () ->
        call "factor" (fun () -> Sympvl.Pencil.with_auto_shift ctx (fun _ _ -> ()));
        call "krylov" (fun () -> Rom.reduce ~ctx ~order:w.order w.engine mna))
  in
  (mna, ctx, model, setup_s, setup_s +. rest_s)

let eval model s = call "rom" (fun () -> Rom.eval model s)

type rep = {
  setup_s : float;
  model_s : float;
  certify_s : float;
  exact_s : float list;  (** seconds per exact analysis *)
  exact_ok : int list;  (** successful points per exact analysis *)
  attempted : int;
  failed : int;
  err : float;
  warm_ms : float list;
}

(* what the per-layer report reads besides the timings; not kept across
   repetitions, so the live heap does not grow between them *)
type detail = {
  report : Sympvl.Certify.report option;
  model : Rom.model;
  points : (Linalg.Cmat.t, exn) result array;
}

(* one exact analysis: Z(0) when the spec asks for it, then the sweep *)
let exact ~jobs w mna ctx =
  let dc =
    if not w.dc_exact then None
    else
      Some
        (try Ok (call "ac" (fun () -> (Sympvl.Moments.exact ~ctx ~shift:0.0 mna 1).(0)))
         with e -> Error e)
  in
  (dc, sweep ~jobs mna ctx w.freqs)

(* One cold request (text -> certified model -> exact analysis, the
   analysis [exact_repeats] times) and [warm_queries] timed evaluations
   of the model on the warm grid. Every operation counts as attempted;
   each exact point that raises and each certify exception as failed. *)
let run_rep ~jobs w text =
  let mna, ctx, model, setup_s, model_s = build w text in
  (* Warm queries come in three bursts, after the model, after certify
     and after the exact analysis, so that one slow stretch of the
     machine touches few samples. The first query of a burst is an
     untimed warm-up. *)
  let query () = Array.map (fun f -> eval model (jw f)) (warm_grid w) in
  let burst () =
    ignore (query ());
    List.init (w.warm_queries / 3) (fun _ -> 1e3 *. snd (timed query))
  in
  let warm = ref (burst ()) in
  (match model with
  | Rom.Sprim_model s ->
    gate (w.label ^ ": SPRIM structure_error") (Sympvl.Sprim.structure_error s) 0.0
  | _ -> ());
  let report, certify_s =
    timed (fun () ->
        try Some (call "certify" (fun () -> Sympvl.Certify.run ~ctx model mna))
        with e ->
          Printf.eprintf "%s: certify raised %s\n%!" w.label (Printexc.to_string e);
          None)
  in
  warm := !warm @ burst ();
  let runs = List.init w.exact_repeats (fun _ -> timed (fun () -> exact ~jobs w mna ctx)) in
  let dc, points = fst (List.hd runs) in
  let per_exact = Array.length points + if w.dc_exact then 1 else 0 in
  let exact_ok =
    List.map
      (fun ((dc, points), _) -> ok_count points + match dc with Some (Ok _) -> 1 | _ -> 0)
      runs
  in
  if List.hd exact_ok = 0 then fail (w.label ^ ": no exact point to check the model against");
  let err = ref 0.0 in
  (match dc with
  | Some (Ok z0) -> err := rel_err (Linalg.Cmat.of_real z0) (eval model Complex.zero)
  | Some (Error e) -> Printf.eprintf "%s: exact Z(0) raised %s\n%!" w.label (Printexc.to_string e)
  | None -> ());
  Array.iteri
    (fun k -> function
      | Ok z -> err := Float.max !err (rel_err z (eval model (jw w.freqs.(k))))
      | Error _ -> ())
    points;
  let warm_ms = !warm @ burst () in
  let exact_s = List.map snd runs in
  Printf.eprintf "%s: setup %.3f s, model %.3f s, certify %.3f s, exact %.3f s\n%!" w.label
    setup_s model_s certify_s (median exact_s);
  ( {
      setup_s;
      model_s;
      certify_s;
      exact_s;
      exact_ok;
      (* parse, assemble, pencil, factor, reduce, certify, every exact
         point, every warm query *)
      attempted = 6 + (w.exact_repeats * per_exact) + List.length warm_ms;
      failed =
        (if report = None then 1 else 0)
        + List.fold_left (fun acc k -> acc + per_exact - k) 0 exact_ok;
      err = !err;
      warm_ms;
    },
    { report; model; points } )

let compute_timed w a =
  let reps = scaled a w.reps in
  ignore (run_rep ~jobs w (text w a 0));
  let results =
    List.init reps (fun k ->
        let t = text w a (k + 1) in
        quiesce ();
        fst (run_rep ~jobs w t))
  in
  (* set-up alone, on the same corners *)
  let setups =
    List.init (scaled a w.setups) (fun k ->
        let t = text w a ((k mod reps) + 1) in
        quiesce ();
        snd (timed (fun () -> ignore (setup t))))
  in
  let setup_all = setups @ List.map (fun r -> r.setup_s) results in
  let err = List.fold_left (fun acc r -> Float.max acc r.err) 0.0 results in
  gate (w.label ^ ": model_err") err w.err_tol;
  let attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 results in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 results in
  let model_s = List.map (fun r -> r.model_s) results in
  let certified_s = List.map (fun r -> r.model_s +. r.certify_s) results in
  let rate =
    List.concat_map
      (fun r -> List.map2 (fun ok s -> float_of_int ok /. s) r.exact_ok r.exact_s)
      results
  in
  let warm = List.concat_map (fun r -> r.warm_ms) results in
  let warm_tail, warm_rank = tail warm in
  let busy_s =
    sum (List.map (fun r -> r.model_s +. r.certify_s +. sum r.exact_s +. (sum r.warm_ms /. 1e3)) results)
  in
  let requests = List.fold_left (fun acc r -> acc + 1 + List.length r.warm_ms) 0 results in
  emit ~declared:end_to_end ~attempted ~failed
    ~meta:
      [
        ("warm_tail_rank_pct", Printf.sprintf "%.1f" warm_rank);
        ("model_err", Printf.sprintf "%.3e" err);
        ("setup_s", spread_meta setup_all);
        ("model_s", spread_meta model_s);
        ("certified_model_s", spread_meta certified_s);
        ("exact_points_per_s", spread_meta rate);
        ("warm_ms", spread_meta warm);
      ]
    [
      ("setup_s", median setup_all);
      ("model_s", median model_s);
      ("certified_model_s", median certified_s);
      ("ac_points_per_s", median rate);
      ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
      ("peak_rss_mb", peak_rss_mb "self");
      ("warm_p50_ms", median warm);
      ("warm_tail_ms", warm_tail);
      ("req_per_s", float_of_int requests /. busy_s);
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer breakdown                                                 *)

(* One traced cold request on a fresh corner, after an untraced warm-up,
   then calls that split the certify and AC layers further (untraced,
   timed directly). Returns the per-layer values and the request's
   operation counts. *)
let layer_metrics w a =
  ignore (run_rep ~jobs w (text w a 0));
  let t = text w a 1 in
  quiesce ();
  let _, _, _, _, untraced_model_s = build w t in
  quiesce ();
  Obs.reset ();
  Hashtbl.reset layers;
  Obs.enable ();
  (* one job: Gc.allocated_bytes sees only the calling domain *)
  let (r, d), wall = timed (fun () -> run_rep ~jobs:1 w t) in
  let own name = match Hashtbl.find_opt layers name with Some l -> l.secs | None -> 0.0 in
  let secs = List.map (fun n -> (n, layer_sum n (fun l -> l.secs))) layer_names in
  let allocs = List.map (fun n -> (n ^ ".alloc_mw", layer_sum n (fun l -> l.mwords))) layer_names in
  let hit = Obs.counter_value "pencil.cache_hit" and miss = Obs.counter_value "pencil.cache_miss" in
  let gauge name = Option.value ~default:0.0 (Obs.gauge_value name) in
  let program =
    [
      ("pencil.factor_nnz", Obs.counter_value "factor.nnz");
      ("pencil.cache_hit_ratio", if hit +. miss > 0.0 then hit /. (hit +. miss) else 0.0);
      ("factor.fallback_dense", Obs.counter_value "factor.fallback_dense");
      ("lanczos.order", gauge "lanczos.order");
      ("sprim.krylov_cols", gauge "sprim.krylov_cols");
      ("certify.hamiltonian_s", span_total "certify.hamiltonian");
    ]
  in
  quiesce ();
  let _, _, _, _, traced_model_s = build w t in
  Obs.disable ();
  let mna, ctx = setup t in
  let point_s =
    List.map
      (fun f ->
        snd (timed (fun () -> try Ok (Simulate.Ac.z_at_ws mna ctx (jw f)) with e -> Error e)))
      (Array.to_list w.freqs)
  in
  let pts1, seq_s = timed (fun () -> sweep ~jobs:1 mna ctx w.freqs) in
  let pts2, par_s = timed (fun () -> sweep ~jobs mna ctx w.freqs) in
  Array.iter
    (function
      | Error e -> Printf.eprintf "%s: exact jw point raised %s\n" w.label (Printexc.to_string e)
      | Ok _ -> ())
    pts1;
  let speedup =
    if ok_count pts1 > 0 && ok_count pts2 > 0 then
      float_of_int (ok_count pts2) /. par_s /. (float_of_int (ok_count pts1) /. seq_s)
    else 0.0
  in
  (* the numeric phases of one exact point, as Simulate.Ac runs them *)
  let fac_s = ref [] and solve_s = ref [] in
  Array.iter
    (fun f ->
      let t0 = now () in
      match Sympvl.Pencil.factor_complex ctx (jw f) with
      | fac ->
        fac_s := (now () -. t0) :: !fac_s;
        let n = Sympvl.Pencil.n ctx and v = Sympvl.Pencil.port_val ctx in
        let rhs =
          Array.mapi
            (fun c ci ->
              let re = Array.make n 0.0 in
              Array.iteri (fun k i -> re.(i) <- v.(c).(k)) ci;
              re)
            (Sympvl.Pencil.port_idx ctx)
        in
        let t1 = now () in
        Array.iter (fun re -> Sympvl.Pencil.csolve_split fac re (Array.make n 0.0)) rhs;
        solve_s := (now () -. t1) :: !solve_s
      | exception _ -> fac_s := (now () -. t0) :: !fac_s)
    w.freqs;
  (* the exact moments MOD005 and MOD006 compare against, on the
     memoized real factors as in Certify.run *)
  let q = min (Rom.expected_moments d.model) 6 in
  List.iter
    (fun shift -> try ignore (Sympvl.Pencil.factor ctx ~shift) with Sympvl.Factor.Singular _ -> ())
    [ Rom.shift d.model; 0.0 ];
  let _, moments_s =
    timed (fun () ->
        ignore (Sympvl.Moments.exact ~ctx ~shift:(Rom.shift d.model) mna q);
        ignore (Sympvl.Moments.exact ~ctx ~shift:0.0 mna 1))
  in
  let non_info =
    match d.report with
    | None -> 0
    | Some rep ->
      List.length
        (List.filter
           (fun f -> f.Circuit.Diagnostic.severity <> Circuit.Diagnostic.Info)
           rep.Sympvl.Certify.findings)
  in
  gate (w.label ^ ": model_err") r.err w.err_tol;
  ( [
      ("circuit.parse_s", own "circuit.parse");
      ("circuit.assemble_s", own "circuit.assemble");
      ("pencil.create_s", List.assoc "pencil" secs);
      ("factor.real_s", List.assoc "factor" secs);
      ("krylov.reduce_s", List.assoc "krylov" secs);
      ("krylov.order", float_of_int (Rom.order d.model));
      ("certify.run_s", List.assoc "certify" secs);
      ("certify.moments_s", moments_s);
      ("certify.non_info", float_of_int non_info);
      ("ac.sweep_s", List.assoc "ac" secs);
      ("ac.point_s", median point_s);
      ("ac.factor_complex_s", median !fac_s);
      ("ac.solve_s", if !solve_s = [] then 0.0 else median !solve_s);
      ("ac.failed_points", float_of_int (Array.length d.points - ok_count d.points));
      ("parallel.ac_speedup", speedup);
      ("rom.eval_s", List.assoc "rom" secs);
      ("accuracy.model_err", r.err);
      ("obs.overhead_ratio", traced_model_s /. untraced_model_s);
      ("unattributed_s", wall -. sum (List.map snd secs));
    ]
    @ program @ allocs,
    r.attempted,
    r.failed )

(* ------------------------------------------------------------------ *)
(* Compute workloads                                                   *)

let grid_rc =
  {
    label = "grid_rc";
    netlist = lazy (Circuit.Generators.rc_grid ~pitch_pads:12 ~rows:96 ~cols:96 ());
    engine = `Sympvl;
    order = 128;
    freqs = Simulate.Ac.log_freqs ~points:32 1e6 1e10;
    dc_exact = false;
    err_tol = 1e-6;
    reps = 6;
    setups = 12;
    exact_repeats = 1;
    warm_queries = 12;
  }

let peec_rlck =
  {
    label = "peec_rlck";
    netlist = lazy (Circuit.Generators.peec_partial ~conductors:16 ~segments:54 ());
    engine = `Sprim;
    order = 40;
    freqs = Simulate.Ac.log_freqs ~points:16 1e6 1e10;
    dc_exact = true;
    err_tol = 1e-8;
    reps = 4;
    setups = 24;
    exact_repeats = 4;
    warm_queries = 12;
  }

let serve_layers = List.filter (fun (n, _) -> String.starts_with ~prefix:"serve." n) per_layer

let compute w a =
  if not a.trace then compute_timed w a
  else
    let values, attempted, failed = layer_metrics w a in
    emit ~declared:per_layer ~attempted ~failed ~meta:[] (values @ List.map (fun (n, _) -> (n, 0.0)) serve_layers)

(* ------------------------------------------------------------------ *)
(* serve_corners: one closed-loop client against symor serve          *)

let serve_spec =
  {
    label = "serve_corners";
    netlist = lazy (Circuit.Generators.rc_grid ~pitch_pads:16 ~rows:64 ~cols:64 ());
    engine = `Sympvl;
    order = 32;
    freqs = Simulate.Ac.log_freqs ~points:16 1e6 1e10;
    dc_exact = false;
    err_tol = 1e-6;
    reps = 36; (* corners *)
    setups = 12; (* daemon spawns *)
    exact_repeats = 1;
    warm_queries = 3; (* repeated ac requests per corner *)
  }

let cache_entries = 4

type daemon = { pid : int; err_in : Unix.file_descr; client : Serve.Client.t }

(* every daemon pid not yet waited for *)
let live : int list ref = ref []

(* relative to the checkout root the benchmark runs from *)
let sock_path () = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ())

(* spawn [symor serve] and connect once it reports that it listens *)
let spawn a =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process a.symor
      [|
        a.symor; "serve"; "--socket"; sock_path (); "--jobs"; string_of_int jobs;
        "--cache-entries"; string_of_int cache_entries;
      |]
      Unix.stdin Unix.stderr w
  in
  live := pid :: !live;
  Unix.close w;
  match input_line (Unix.in_channel_of_descr r) with
  | line when String.starts_with ~prefix:"symor: serving on" line ->
    { pid; err_in = r; client = Serve.Client.connect (`Unix (sock_path ())) }
  | line -> failwith ("symor serve: " ^ line)
  | exception End_of_file -> failwith "symor serve exited before listening"

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let stop d =
  ignore (Serve.Client.request d.client {|{"op":"shutdown"}|});
  Serve.Client.close d.client;
  waitpid d.pid;
  Unix.close d.err_in;
  live := List.filter (( <> ) d.pid) !live

(* never leave a daemon behind, whatever ends the run *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          waitpid pid)
        !live)

let request_line op k text extra =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str (Printf.sprintf "%s-%d" op k));
          ("op", Json.Str op);
          ("netlist", Json.Str text);
          ("engine", Json.Str (Rom.name serve_spec.engine));
          ("order", Json.Num (float_of_int serve_spec.order));
        ]
       @ extra))

let ac_extra =
  [ ("freqs", Json.List (Array.to_list (Array.map (fun f -> Json.Num f) serve_spec.freqs))) ]

let is_ok resp =
  match Json.parse resp with
  | j -> Json.to_bool_opt (Json.member "ok" j) = Some true
  | exception Json.Parse_error _ -> false

type served = {
  cold_ms : float list;
  certified_ms : float list;
  ctx_ac_ms : float list;
  warm_ms : float list;
  requests : int;
  errors : int;
  loop_s : float;  (** wall time of the measured corners *)
  client_s : float;  (** every request to the daemon, client-observed *)
  stats : Json.t;
  rss_mb : float;
  first_ac : string;  (** corner 1's first ac answer *)
}

(* Corner 0 is the discarded warm-up. Each corner: a cold reduce (cache
   miss: parse, MNA, pencil, reduce), a certify and an ac on the cached
   context, then [warm_queries] repeated ac requests spread over the
   corners still cached (full hits). The client mirrors the daemon's
   LRU so a repeat never lands on an evicted corner; more corners than
   [cache_entries] keep inserts and evictions running. *)
let serve_loop a ~corners =
  let d = spawn a in
  let errors = ref 0 and requests = ref 0 and client_s = ref 0.0 in
  let first = Hashtbl.create 64 in
  let send ~measured ~id line =
    let resp, dt = timed (fun () -> Serve.Client.request d.client line) in
    client_s := !client_s +. dt;
    let resp = match resp with Some r -> r | None -> failwith "symor serve closed the connection" in
    if measured then incr requests;
    if not (is_ok resp) then begin
      if measured then incr errors;
      Printf.eprintf "serve error: %s\n%!" (String.sub resp 0 (min 300 (String.length resp)))
    end;
    (* an id always names the same request line *)
    (match Hashtbl.find_opt first id with
    | None -> Hashtbl.add first id resp
    | Some r0 -> if not (String.equal r0 resp) then fail (id ^ ": repeat answer differs from the first"));
    (resp, dt *. 1e3)
  in
  let lru = ref [] in
  let touch k = lru := List.filteri (fun i _ -> i < cache_entries) (k :: List.filter (( <> ) k) !lru) in
  let cold = ref [] and certified = ref [] and ctx_ac = ref [] and warm = ref [] in
  let first_ac = ref "" in
  let texts = Array.init (corners + 1) (fun k -> text serve_spec a (100 + k)) in
  let t_loop = ref 0.0 in
  for k = 0 to corners do
    let measured = k > 0 in
    if k = 1 then t_loop := now ();
    let t = texts.(k) in
    let id op = Printf.sprintf "%s-%d" op k in
    let _, c = send ~measured ~id:(id "reduce") (request_line "reduce" k t []) in
    touch k;
    let _, ce = send ~measured ~id:(id "certify") (request_line "certify" k t []) in
    let r, x = send ~measured ~id:(id "ac") (request_line "ac" k t ac_extra) in
    if k = 1 then first_ac := r;
    if measured then begin
      cold := c :: !cold;
      certified := (c +. ce) :: !certified;
      ctx_ac := x :: !ctx_ac
    end;
    for i = 0 to serve_spec.warm_queries - 1 do
      let cached = Array.of_list (List.sort Int.compare !lru) in
      let j = cached.(i mod Array.length cached) in
      let _, x =
        send ~measured ~id:(Printf.sprintf "ac-%d" j) (request_line "ac" j texts.(j) ac_extra)
      in
      touch j;
      if measured then warm := x :: !warm
    done
  done;
  let loop_s = now () -. !t_loop in
  let stats =
    match Serve.Client.request d.client {|{"op":"stats"}|} with
    | Some s -> Json.parse s
    | None -> Json.Null
  in
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  stop d;
  {
    cold_ms = !cold;
    certified_ms = !certified;
    ctx_ac_ms = !ctx_ac;
    warm_ms = !warm;
    requests = !requests;
    errors = !errors;
    loop_s;
    client_s = !client_s;
    stats;
    rss_mb;
    first_ac = !first_ac;
  }

(* daemon spawn until its first answer to a cold request, several times *)
let serve_setups a ~n =
  let t = text serve_spec a 99 in
  List.init n (fun _ ->
      let t0 = now () in
      let d = spawn a in
      let resp = Serve.Client.request d.client (request_line "reduce" 0 t []) in
      let dt = now () -. t0 in
      if not (Option.fold ~none:false ~some:is_ok resp) then
        fail "serve_corners: set-up reduce not answered ok:true";
      stop d;
      dt)

(* the daemon's exact Z for corner 1 against the library's own *)
let check_ac a first_ac =
  let mna = Mna.auto (Circuit.Parser.parse_string (text serve_spec a 101)) in
  let ctx = Sympvl.Pencil.create mna in
  let list j = Option.value ~default:[] (Json.to_list_opt j) in
  let num j = Option.value ~default:nan (Json.to_float_opt j) in
  let zs = Array.of_list (list (Json.member "z" (Json.parse first_ac))) in
  if Array.length zs <> Array.length serve_spec.freqs then
    fail "serve_corners: ac answer has the wrong number of points"
  else
    let worst = ref 0.0 in
    Array.iteri
      (fun k f ->
        let zr = Simulate.Ac.z_at_ws mna ctx (jw f) in
        let rows = Array.of_list (List.map (fun r -> Array.of_list (list r)) (list zs.(k))) in
        let got =
          Linalg.Cmat.init zr.Linalg.Cmat.rows zr.Linalg.Cmat.cols (fun r c ->
              match list rows.(r).(c) with
              | [ re; im ] -> { Complex.re = num re; im = num im }
              | _ -> { Complex.re = nan; im = nan })
        in
        worst := Float.max !worst (rel_err zr got))
      serve_spec.freqs;
    gate "serve_corners: daemon ac vs in-process exact (relative)" !worst 1e-12

let serve_corners a =
  let setups = serve_setups a ~n:(scaled a serve_spec.setups) in
  quiesce ();
  (* at least 11 cold samples, so that the cold tail exists *)
  let s = serve_loop a ~corners:(max 11 (scaled a serve_spec.reps)) in
  (try check_ac a s.first_ac with e -> fail ("serve_corners: ac answer: " ^ Printexc.to_string e));
  let attempted = s.requests + List.length setups and failed = s.errors in
  let cold_tail, cold_rank = tail s.cold_ms and warm_tail, warm_rank = tail s.warm_ms in
  if not a.trace then
    emit ~declared:end_to_end ~attempted ~failed
      ~meta:
        [
          ("cache_entries", string_of_int cache_entries);
          ("warm_tail_rank_pct", Printf.sprintf "%.1f" warm_rank);
          ("setup_s", spread_meta setups);
          ("cold_ms", spread_meta s.cold_ms);
          ("certified_ms", spread_meta s.certified_ms);
          ("ctx_ac_ms", spread_meta s.ctx_ac_ms);
          ("warm_ms", spread_meta s.warm_ms);
        ]
      [
        ("setup_s", median setups);
        ("model_s", median s.cold_ms /. 1e3);
        ("certified_model_s", median s.certified_ms /. 1e3);
        ( "ac_points_per_s",
          float_of_int (Array.length serve_spec.freqs) /. (median s.ctx_ac_ms /. 1e3) );
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
        ("peak_rss_mb", s.rss_mb);
        ("warm_p50_ms", median s.warm_ms);
        ("warm_tail_ms", warm_tail);
        ("req_per_s", float_of_int s.requests /. s.loop_s);
      ]
  else begin
    let stat path = Option.value ~default:0.0 (Json.to_float_opt (List.fold_left (fun j k -> Json.member k j) s.stats path)) in
    let share a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
    let daemon_s = stat [ "latency"; "total_s" ] in
    let values, _, _ = layer_metrics serve_spec a in
    emit ~declared:per_layer ~attempted ~failed
      ~meta:[ ("cold_tail_rank_pct", Printf.sprintf "%.1f" cold_rank) ]
      (values
      @ [
          ("serve.hit_ratio", share (stat [ "cache"; "hits" ]) (stat [ "cache"; "misses" ]));
          ( "serve.point_hit_ratio",
            share (stat [ "cache"; "point_hits" ]) (stat [ "cache"; "point_misses" ]) );
          ("serve.evictions", stat [ "cache"; "evictions" ]);
          ("serve.ctx_hit_ms", median s.ctx_ac_ms);
          ("serve.cold_p50_ms", median s.cold_ms);
          ("serve.cold_tail_ms", cold_tail);
          ("serve.daemon_s", daemon_s);
          ("serve.wait_s", s.client_s -. daemon_s);
        ])
  end

let () =
  let a = parse_args () in
  match a.workload with
  | "grid_rc" -> compute grid_rc a
  | "peec_rlck" -> compute peec_rlck a
  | "serve_corners" -> serve_corners a
  | _ -> usage ()
