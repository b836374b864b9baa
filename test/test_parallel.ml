(* Tests for the parallel AC engine: the domain pool, bitwise
   determinism of the pooled sweep, the split-complex (SoA) skyline
   kernel against the boxed functor oracle, and symbolic-reuse
   regressions. *)

(* ------------------------------------------------------------------ *)
(* Parallel.Pool                                                      *)

let test_pool_map_matches_init () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let got = Parallel.Pool.parallel_map pool 257 (fun i -> (i * i) - 3) in
          let want = Array.init 257 (fun i -> (i * i) - 3) in
          Alcotest.(check bool)
            (Printf.sprintf "map = init at jobs=%d" jobs)
            true (got = want)))
    [ 1; 2; 4 ]

let test_pool_for_covers_once () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Array.make 1000 0 in
      (* each slot is written by exactly one iteration *)
      Parallel.Pool.parallel_for pool ~chunk:7 1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

exception Boom

let test_pool_map_evaluates_once () =
  List.iter
    (fun (jobs, n) ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let calls = Array.init n (fun _ -> Atomic.make 0) in
          let got =
            Parallel.Pool.parallel_map pool ~chunk:3 n (fun i ->
                Atomic.incr calls.(i);
                2 * i)
          in
          Alcotest.(check bool)
            (Printf.sprintf "every index evaluated once at jobs=%d n=%d" jobs n)
            true
            (Array.for_all (fun c -> Atomic.get c = 1) calls);
          Alcotest.(check bool) "slot i = f i" true (got = Array.init n (fun i -> 2 * i))))
    [ (1, 0); (1, 5); (2, 1); (2, 32); (4, 17) ];
  (* an exception from any slot, the first included, reaches the caller *)
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check bool) "slot 0 raises" true
        (try
           ignore (Parallel.Pool.parallel_map pool 16 (fun i -> if i = 0 then raise Boom else i));
           false
         with Boom -> true))

let test_pool_exception_propagates () =
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check bool) "raises" true
        (try
           Parallel.Pool.parallel_for pool 100 (fun i -> if i = 57 then raise Boom);
           false
         with Boom -> true);
      (* the pool survives the failed batch *)
      let a = Parallel.Pool.parallel_map pool 10 (fun i -> i) in
      Alcotest.(check bool) "usable after exception" true (a = Array.init 10 Fun.id))

let test_pool_nested_degrades () =
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let out = Array.make 12 (-1) in
      Parallel.Pool.parallel_for pool 4 (fun i ->
          (* nested use of the same pool must run sequentially, not
             deadlock *)
          Parallel.Pool.parallel_for pool 3 (fun j -> out.((3 * i) + j) <- (3 * i) + j));
      Alcotest.(check bool) "nested loops completed" true
        (out = Array.init 12 Fun.id))

let test_default_jobs_positive () =
  Alcotest.(check bool) "default jobs >= 1" true (Parallel.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* bitwise determinism of the pooled sweep                             *)

let bits_equal_cmat p a b =
  let eq_f x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let ok = ref true in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      let x = Linalg.Cmat.get a i j and y = Linalg.Cmat.get b i j in
      if not (eq_f x.Complex.re y.Complex.re && eq_f x.Complex.im y.Complex.im) then
        ok := false
    done
  done;
  !ok

let sweeps_bitwise_equal (a : Simulate.Ac.sweep) (b : Simulate.Ac.sweep) =
  let p = Array.length a.Simulate.Ac.port_names in
  Array.length a.Simulate.Ac.z = Array.length b.Simulate.Ac.z
  && Array.for_all2 (bits_equal_cmat p) a.Simulate.Ac.z b.Simulate.Ac.z

(* cwd is the test directory under `dune runtest` but the workspace
   root under `dune exec` — accept either *)
let netlist_path base =
  let cands = [ "../examples/netlists/" ^ base; "examples/netlists/" ^ base ] in
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let shipped_examples =
  List.map netlist_path
    [ "rc_line.cir"; "lc_tank.cir"; "rl_ladder.cir"; "coupled_lines.cir" ]

let test_sweep_bitwise_examples () =
  List.iter
    (fun path ->
      let mna = Circuit.Mna.auto (Circuit.Parser.parse_file path) in
      let freqs = Simulate.Ac.log_freqs ~points:23 1e6 1e10 in
      let seq = Simulate.Ac.sweep ~jobs:1 mna freqs in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s bitwise at jobs=%d" (Filename.basename path) jobs)
            true
            (sweeps_bitwise_equal seq (Simulate.Ac.sweep ~jobs mna freqs)))
        [ 1; 2; 4 ])
    shipped_examples

let test_sweep_bitwise_generator () =
  (* a larger p > 1 workload than the shipped decks *)
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:4 ~sections:15 () in
  let mna = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:37 1e6 5e9 in
  let seq = Simulate.Ac.sweep ~jobs:1 mna freqs in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "rc bus bitwise at jobs=%d" jobs)
        true
        (sweeps_bitwise_equal seq (Simulate.Ac.sweep ~jobs mna freqs)))
    [ 2; 4 ]

(* one shared model evaluated over a pool, one frequency per task: the
   pooled results are bitwise the sequential ones at jobs 1 and 2, also
   with the race and fp sanitizers on (and they find nothing) *)
let check_pooled_eval_bitwise label model =
  let p = Sympvl.Rom.ports model in
  let freqs = Simulate.Ac.log_freqs ~points:32 1e6 1e10 in
  let point k = Sympvl.Rom.eval model (Linalg.Cx.im (2.0 *. Float.pi *. freqs.(k))) in
  let seq = Array.init (Array.length freqs) point in
  let pooled jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Parallel.Pool.parallel_map pool (Array.length freqs) point)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s eval bitwise at jobs=%d" label jobs)
        true
        (Array.for_all2 (bits_equal_cmat p) seq (pooled jobs)))
    [ 1; 2 ];
  let race = San.race () and fp = San.fp () in
  San.set ~race:true ~fp:true ();
  San.clear_findings ();
  let checked = Fun.protect ~finally:(fun () -> San.set ~race ~fp ()) (fun () -> pooled 2) in
  Alcotest.(check bool) "SYMOR_SAN=race,fp = plain" true
    (Array.for_all2 (bits_equal_cmat p) seq checked);
  Alcotest.(check int) "no fp findings" 0 (List.length (San.findings ()))

(* the grid_rc shape, scaled down (32×32 RC grid, 16 ports, SyMPVL 64):
   the modal pole–residue eval *)
let test_modal_eval_bitwise () =
  let mna = Circuit.Mna.auto (Circuit.Generators.rc_grid ~pitch_pads:4 ~rows:32 ~cols:32 ()) in
  let model = Sympvl.Rom.reduce ~order:64 `Sympvl mna in
  let r = Sympvl.Rom.realisation model in
  Alcotest.(check bool) "16 ports, modal form" true
    (Sympvl.Realisation.ports r = 16 && match r.Sympvl.Realisation.form with Sympvl.Realisation.Modal _ -> true | _ -> false);
  check_pooled_eval_bitwise "modal" model

(* the peec_rlck shape, scaled down (4×12 PEEC partial-element net,
   SPRIM 24): the Hessenberg–triangular eval *)
let test_hess_eval_bitwise () =
  let mna = Circuit.Mna.auto (Circuit.Generators.peec_partial ~conductors:4 ~segments:12 ()) in
  let model = Sympvl.Rom.reduce ~order:24 `Sprim mna in
  let r = Sympvl.Rom.realisation model in
  Alcotest.(check bool) "reduced Hessenberg form" true
    (match r.Sympvl.Realisation.form with Sympvl.Realisation.Hess _ -> true | _ -> false);
  check_pooled_eval_bitwise "sprim" model

(* ------------------------------------------------------------------ *)
(* symbolic-reuse regression: a reused workspace gives the same Z      *)

let test_workspace_reuse_matches_fresh () =
  let nl = Circuit.Generators.package_model ~pins:8 ~signal_pins:4 ~sections:3 () in
  let mna = Circuit.Mna.assemble nl in
  let p = Array.length mna.Circuit.Mna.port_names in
  let ws = Simulate.Ac.workspace mna in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      (* same workspace used repeatedly vs a fresh symbolic phase *)
      let z_reused1 = Simulate.Ac.z_at_ws mna ws s in
      let z_reused2 = Simulate.Ac.z_at_ws mna ws s in
      let z_fresh = Simulate.Ac.z_at mna s in
      Alcotest.(check bool) "reuse deterministic" true (bits_equal_cmat p z_reused1 z_reused2);
      Alcotest.(check bool) "reuse = fresh" true (bits_equal_cmat p z_reused1 z_fresh))
    [ 1e7; 1e9; 7.3e9 ]

(* ------------------------------------------------------------------ *)
(* qcheck: SoA kernel vs the Complex_sym functor oracle                *)

(* random diagonally dominant envelope pencil (G, C) plus a frequency
   point s with Re s >= 0: |G(i,i) + s·C(i,i)| strictly dominates the
   off-diagonal row sums, so both kernels factor without breakdown *)
let gen_pencil =
  QCheck.Gen.(
    int_range 2 24 >>= fun n ->
    list_repeat n (int_range 0 5) >>= fun bands ->
    let first =
      Array.of_list (List.mapi (fun i b -> max 0 (i - b)) bands)
    in
    let fill_rows rng =
      Array.init n (fun i ->
          Array.init
            (i - first.(i) + 1)
            (fun k -> if k = i - first.(i) then 0.0 else float_range (-1.0) 1.0 rng))
    in
    let dominate rows =
      (* full-row absolute sums (envelope entry (i,j) also lives in
         symmetric position (j,i)) *)
      let sums = Array.make n 0.0 in
      Array.iteri
        (fun i r ->
          Array.iteri
            (fun k v ->
              if first.(i) + k < i then begin
                sums.(i) <- sums.(i) +. Float.abs v;
                sums.(first.(i) + k) <- sums.(first.(i) + k) +. Float.abs v
              end)
            r)
        rows;
      Array.iteri (fun i r -> r.(i - first.(i)) <- (2.0 *. sums.(i)) +. 1.0) rows;
      rows
    in
    fun rng ->
      let pe_g = dominate (fill_rows rng) in
      let pe_c = dominate (fill_rows rng) in
      let s =
        { Complex.re = float_range 0.0 2.0 rng; im = float_range 0.1 10.0 rng }
      in
      let b = Array.init n (fun _ -> float_range (-1.0) 1.0 rng) in
      ({ Sparse.Skyline.pe_n = n; pe_first = first; pe_g; pe_c }, s, b))

let print_pencil (env, s, _) =
  Printf.sprintf "n=%d s=%g%+gi" env.Sparse.Skyline.pe_n s.Complex.re s.Complex.im

let soa_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"skyline: SoA kernel = Complex_sym oracle (diag and solve)"
    (QCheck.make ~print:print_pencil gen_pencil)
    (fun (env, s, b) ->
      let n = env.Sparse.Skyline.pe_n in
      let oracle = Sparse.Skyline.factor_complex_env env s in
      let soa = Sparse.Skyline.Complex_soa.factor_pencil env s in
      let d_o = Sparse.Skyline.Complex_sym.d oracle in
      let d_s = Sparse.Skyline.Complex_soa.d soa in
      let dscale =
        Array.fold_left (fun acc x -> Float.max acc (Complex.norm x)) 1e-300 d_o
      in
      let d_ok = ref true in
      for i = 0 to n - 1 do
        if Complex.norm (Complex.sub d_o.(i) d_s.(i)) > 1e-12 *. dscale then d_ok := false
      done;
      let x_o =
        Sparse.Skyline.Complex_sym.solve oracle
          (Array.map (fun v -> { Complex.re = v; im = 0.0 }) b)
      in
      let x_re = Array.copy b and x_im = Array.make n 0.0 in
      Sparse.Skyline.Complex_soa.solve_split soa x_re x_im;
      let xscale =
        Array.fold_left (fun acc x -> Float.max acc (Complex.norm x)) 1e-300 x_o
      in
      let x_ok = ref true in
      for i = 0 to n - 1 do
        let d =
          Complex.norm
            (Complex.sub x_o.(i) { Complex.re = x_re.(i); im = x_im.(i) })
        in
        if d > 1e-12 *. xscale then x_ok := false
      done;
      !d_ok && !x_ok)

let fill_agrees =
  QCheck.Test.make ~count:100 ~name:"skyline: SoA fill = functor fill"
    (QCheck.make ~print:print_pencil gen_pencil)
    (fun (env, s, _) ->
      let oracle = Sparse.Skyline.factor_complex_env env s in
      let soa = Sparse.Skyline.Complex_soa.factor_pencil env s in
      Sparse.Skyline.Complex_sym.fill oracle = Sparse.Skyline.Complex_soa.fill soa
      && Sparse.Skyline.Complex_sym.dim oracle = Sparse.Skyline.Complex_soa.dim soa)

let qsuite =
  List.map
    (fun t -> Qtest.to_alcotest t)
    [ soa_matches_oracle; fill_agrees ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches init" `Quick test_pool_map_matches_init;
          Alcotest.test_case "for covers once" `Quick test_pool_for_covers_once;
          Alcotest.test_case "map evaluates each index once" `Quick test_pool_map_evaluates_once;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "nested degrades" `Quick test_pool_nested_degrades;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shipped examples bitwise" `Quick test_sweep_bitwise_examples;
          Alcotest.test_case "rc bus bitwise" `Quick test_sweep_bitwise_generator;
          Alcotest.test_case "modal eval bitwise" `Quick test_modal_eval_bitwise;
          Alcotest.test_case "hessenberg eval bitwise" `Quick test_hess_eval_bitwise;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "reuse = fresh factorisation" `Quick
            test_workspace_reuse_matches_fresh;
        ] );
      ("properties", qsuite);
    ]
