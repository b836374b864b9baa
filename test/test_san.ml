(* Tests for the runtime sanitizers (SYMOR_SAN): the checked-pool race
   detector, the FP kernel monitor, the sanitizers-off cost contract,
   and the pool_for publication fix the race checker exists to guard. *)

let with_san ?race ?fp f =
  San.set ?race ?fp ();
  Fun.protect
    ~finally:(fun () ->
      San.set ~race:false ~fp:false ();
      San.clear_findings ())
    f

let codes () = List.map (fun f -> f.San.san_code) (San.findings ())

(* ------------------------------------------------------------------ *)
(* Race: batch ownership slots                                         *)

let test_batch_clean () =
  let b = San.Race.batch_begin ~n:8 in
  for i = 0 to 7 do
    San.Race.claim b i
  done;
  San.Race.batch_end b

let test_batch_double_claim () =
  let b = San.Race.batch_begin ~n:4 in
  San.Race.claim b 2;
  (match San.Race.claim b 2 with
  | () -> Alcotest.fail "second claim of the same slot must raise"
  | exception San.Violation msg ->
    Alcotest.(check bool) "names SAN201" true
      (String.length msg >= 6 && String.sub msg 0 6 = "SAN201"));
  San.Race.batch_abort b

let test_batch_unclaimed_slot () =
  let b = San.Race.batch_begin ~n:5 in
  List.iter (San.Race.claim b) [ 0; 1; 3; 4 ];
  match San.Race.batch_end b with
  | () -> Alcotest.fail "batch_end must flag the unwritten slot"
  | exception San.Violation msg ->
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names SAN202 and slot 2" true
      (String.sub msg 0 6 = "SAN202" && contains "slot 2" msg)

(* ------------------------------------------------------------------ *)
(* Race: cross-kernel write registry                                   *)

let test_note_write_inactive_is_noop () =
  (* no open batch: the registry must ignore the write entirely *)
  San.Race.note_write ~tag:"t" 3;
  San.Race.note_write ~tag:"t" 3

let test_note_write_double () =
  let b = San.Race.batch_begin ~n:1 in
  San.Race.note_write ~tag:"z" 7;
  (match San.Race.note_write ~tag:"z" 7 with
  | () -> Alcotest.fail "double write of the same output slot must raise"
  | exception San.Violation msg ->
    Alcotest.(check bool) "names SAN203" true (String.sub msg 0 6 = "SAN203"));
  San.Race.claim b 0;
  San.Race.batch_end b

let test_note_write_distinct_tags () =
  let b = San.Race.batch_begin ~n:1 in
  San.Race.note_write ~tag:"a" 0;
  San.Race.note_write ~tag:"b" 0;
  (* same index, different kernels: not a conflict *)
  San.Race.claim b 0;
  San.Race.batch_end b

(* ------------------------------------------------------------------ *)
(* Race: seeded schedule permutation                                   *)

let test_permute_is_permutation () =
  List.iter
    (fun seed ->
      let p = San.Race.permute ~seed 97 in
      let seen = Array.make 97 false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d covers all chunks" seed)
        true
        (Array.for_all Fun.id seen))
    [ 0; 1; 42; 0x53414e ]

let test_permute_deterministic () =
  Alcotest.(check bool) "same seed, same order" true
    (San.Race.permute ~seed:7 64 = San.Race.permute ~seed:7 64);
  Alcotest.(check bool) "different seeds differ" true
    (San.Race.permute ~seed:7 64 <> San.Race.permute ~seed:8 64)

(* ------------------------------------------------------------------ *)
(* Race: end-to-end through the pool                                   *)

let test_pooled_loop_clean_under_race () =
  with_san ~race:true @@ fun () ->
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let out = Array.make 500 0 in
      Parallel.Pool.parallel_for pool ~chunk:7 500 (fun i -> out.(i) <- i * i);
      Alcotest.(check bool) "checked loop completes and covers" true
        (Array.for_all2 (fun v i -> v = i * i) out (Array.init 500 Fun.id)))

let test_pooled_double_write_detected () =
  with_san ~race:true @@ fun () ->
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      match
        (* every pair of iterations targets one output slot — the
           overlap the checker exists to catch *)
        Parallel.Pool.parallel_for pool ~chunk:1 64 (fun i ->
            San.Race.note_write ~tag:"collide" (i / 2))
      with
      | () -> Alcotest.fail "overlapping writers must raise Violation"
      | exception San.Violation msg ->
        Alcotest.(check bool) "names SAN203" true (String.sub msg 0 6 = "SAN203"))

let test_race_off_pool_unchecked () =
  (* sanitizer off: the same overlapping pattern runs silently *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Parallel.Pool.parallel_for pool ~chunk:1 64 (fun i ->
          San.Race.note_write ~tag:"collide" (i / 2)))

(* ------------------------------------------------------------------ *)
(* pool_for publication: concurrent callers agree on one pool          *)

let test_pool_for_no_duplicates () =
  let jobs = 5 in
  let before = Parallel.pool_count () in
  let barrier = Atomic.make 0 in
  let spawn () =
    Domain.spawn (fun () ->
        Atomic.incr barrier;
        while Atomic.get barrier < 4 do
          Domain.cpu_relax ()
        done;
        Parallel.pool_for ~jobs)
  in
  let doms = List.init 4 (fun _ -> spawn ()) in
  let pools = List.map Domain.join doms in
  let first = List.hd pools in
  Alcotest.(check bool) "all callers got the same pool" true
    (List.for_all (fun p -> p == first) pools);
  Alcotest.(check int) "exactly one pool was created" (before + 1)
    (Parallel.pool_count ())

(* ------------------------------------------------------------------ *)
(* FP monitor                                                          *)

let test_fp_check_records () =
  with_san ~fp:true @@ fun () ->
  San.Fp.check ~name:"t" 1.0;
  Alcotest.(check (list string)) "finite value is silent" [] (codes ());
  San.Fp.check ~name:"t" Float.nan;
  San.Fp.check ~name:"t" Float.infinity;
  Alcotest.(check (list string)) "NaN and Inf each record SAN101"
    [ "SAN101"; "SAN101" ] (codes ())

let test_fp_check_array_index () =
  with_san ~fp:true @@ fun () ->
  San.Fp.check_array ~name:"arr" [| 1.0; 2.0; Float.nan; 4.0 |];
  match San.findings () with
  | [ f ] ->
    Alcotest.(check string) "code" "SAN101" f.San.san_code;
    Alcotest.(check bool) "message names index 2" true
      (String.length f.San.san_message > 0
      && String.ends_with ~suffix:"index 2" f.San.san_message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_fp_growth_threshold () =
  with_san ~fp:true @@ fun () ->
  San.Fp.growth ~name:"k" ~scale:1.0 ~lmax:1e3 ~dmax:1e5;
  Alcotest.(check (list string)) "benign growth is silent" [] (codes ());
  San.Fp.growth ~name:"k" ~scale:1.0 ~lmax:1e12 ~dmax:1.0;
  Alcotest.(check (list string)) "|L|max beyond limit records SAN102" [ "SAN102" ]
    (codes ())

let test_fp_skyline_nan_detected () =
  with_san ~fp:true @@ fun () ->
  let first = [| 0; 0; 0 |] in
  let get i j = if i = 2 && j = 2 then Float.nan else if i = j then 1.0 else 0.1 in
  (match Sparse.Skyline.Real.factor ~n:3 ~first ~get () with
  | _ -> ()
  | exception Sparse.Skyline.Singular _ -> ());
  Alcotest.(check bool) "NaN input surfaces as SAN101" true
    (List.mem "SAN101" (codes ()))

let test_fp_supernodal_nan_detected () =
  with_san ~fp:true @@ fun () ->
  let tr = Sparse.Triplet.create 4 4 in
  for i = 0 to 3 do
    Sparse.Triplet.add tr i i (if i = 2 then Float.nan else 1.0)
  done;
  for i = 0 to 2 do
    Sparse.Triplet.add_sym tr i (i + 1) 0.1
  done;
  let g = Sparse.Csr.of_triplet tr in
  let sym = Sparse.Supernodal.symbolic g in
  (match Sparse.Supernodal.Real.factor sym 0.0 with
  | _ -> ()
  | exception Sparse.Supernodal.Singular _ -> ());
  Alcotest.(check bool) "NaN input surfaces as SAN101" true
    (List.mem "SAN101" (codes ()))

(* a non-finite entry of the symmetric triple reaches the modal build
   (λ, W) and the pole–residue eval, and both probes record it *)
let test_fp_modal_nan_detected () =
  with_san ~fp:true @@ fun () ->
  let k0 = Linalg.Mat.identity 2 and w = Linalg.Mat.of_arrays [| [| 1.0 |]; [| Float.nan |] |] in
  let r =
    Sympvl.Realisation.congruence ~definite:true ~shift:0.0 ~variable:Circuit.Mna.S
      ~gain:Circuit.Mna.Unit k0 (Linalg.Mat.diag [| 1.0; 2.0 |]) w
  in
  Alcotest.(check (list string)) "the build records W" [ "SAN101" ] (codes ());
  ignore (Sympvl.Realisation.eval r (Linalg.Cx.im 1.0));
  Alcotest.(check (list string)) "the eval records Z" [ "SAN101"; "SAN101"; "SAN101" ] (codes ())

let test_fp_supernodal_solve_clean () =
  (* the production path on a well-conditioned pencil: factor + solve,
     real and split-complex, must record nothing — the supernodal
     probes only fire on genuine non-finite or growth findings *)
  with_san ~fp:true @@ fun () ->
  let n = 12 in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i 2.0;
    if i + 1 < n then Sparse.Triplet.add_sym tr i (i + 1) (-0.5)
  done;
  let g = Sparse.Csr.of_triplet tr in
  let tc = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tc i i 1e-12
  done;
  let c = Sparse.Csr.of_triplet tc in
  let sym = Sparse.Supernodal.symbolic ~c g in
  let fac = Sparse.Supernodal.Real.factor sym 1e9 in
  let _ = Sparse.Supernodal.Real.solve fac (Array.init n float_of_int) in
  let cf = Sparse.Supernodal.Complex_soa.factor sym Complex.{ re = 0.0; im = 1e9 } in
  let xr = Array.make n 1.0 and xi = Array.make n 0.0 in
  Sparse.Supernodal.Complex_soa.solve_split cf xr xi;
  Alcotest.(check (list string)) "clean factor+solve is finding-free" [] (codes ())

let test_fp_ac_sweep_clean () =
  with_san ~fp:true @@ fun () ->
  let nl = Circuit.Generators.rc_line ~sections:12 () in
  let mna = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:9 1e6 1e9 in
  let _ = Simulate.Ac.sweep ~jobs:2 mna freqs in
  Alcotest.(check (list string)) "well-conditioned sweep is finding-free" []
    (codes ())

(* ------------------------------------------------------------------ *)
(* Findings plumbing                                                   *)

let test_findings_clear () =
  with_san ~fp:true @@ fun () ->
  San.Fp.check ~name:"x" Float.nan;
  Alcotest.(check int) "one finding" 1 (List.length (San.findings ()));
  San.clear_findings ();
  Alcotest.(check int) "cleared" 0 (List.length (San.findings ()))

(* ------------------------------------------------------------------ *)
(* Sanitizers-off cost contract: probes are a load and a branch        *)

let test_disabled_zero_alloc () =
  San.set ~race:false ~fp:false ();
  let iters = 200_000 in
  let before = Gc.allocated_bytes () in
  for i = 0 to iters - 1 do
    if San.race () then San.Race.note_write ~tag:"gate" i;
    if San.fp () then San.Fp.check ~name:"gate" (float_of_int i)
  done;
  let delta = Gc.allocated_bytes () -. before in
  if delta > 1024.0 then
    Alcotest.failf "disabled sanitizer probes allocated %.0f bytes over %d iterations"
      delta iters

(* ------------------------------------------------------------------ *)
(* Property: checked pooled sweep is bitwise = sequential, any chunk   *)

let bits_equal_cmat a b =
  let eq_f x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let ok = ref true in
  for i = 0 to 0 do
    for j = 0 to 0 do
      let x = Linalg.Cmat.get a i j and y = Linalg.Cmat.get b i j in
      if not (eq_f x.Complex.re y.Complex.re && eq_f x.Complex.im y.Complex.im) then
        ok := false
    done
  done;
  !ok

let netlist_path base =
  let cands = [ "../examples/netlists/" ^ base; "examples/netlists/" ^ base ] in
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let prop_checked_sweep_bitwise =
  let mna = Circuit.Mna.auto (Circuit.Parser.parse_file (netlist_path "rc_line.cir")) in
  let ws = Simulate.Ac.workspace mna in
  let freqs = Simulate.Ac.log_freqs ~points:29 1e6 1e10 in
  let n = Array.length freqs in
  let point k =
    if San.race () then San.Race.note_write ~tag:"qtest.ac" k;
    Simulate.Ac.z_at_ws mna ws (Linalg.Cx.im (2.0 *. Float.pi *. freqs.(k)))
  in
  let seq = Array.init n point in
  QCheck.Test.make ~count:25 ~long_factor:1
    ~name:"race-checked pooled sweep bitwise = sequential (random chunk & seed)"
    QCheck.(pair (int_range 1 13) (int_range 0 10_000))
    (fun (chunk, seed) ->
      (* perturb the chunk-claim schedule: the permutation seed is read
         per batch, so every draw exercises a different claim order *)
      Unix.putenv "SYMOR_SAN_SEED" (string_of_int seed);
      with_san ~race:true @@ fun () ->
      List.for_all
        (fun jobs ->
          let got =
            Parallel.Pool.parallel_map (Parallel.pool_for ~jobs) ~chunk n point
          in
          Array.for_all2 bits_equal_cmat seq got)
        [ 1; 2; 4 ])

let () =
  Alcotest.run "san"
    [
      ( "race-batch",
        [
          Alcotest.test_case "clean batch" `Quick test_batch_clean;
          Alcotest.test_case "double claim" `Quick test_batch_double_claim;
          Alcotest.test_case "unclaimed slot" `Quick test_batch_unclaimed_slot;
        ] );
      ( "race-registry",
        [
          Alcotest.test_case "inactive no-op" `Quick test_note_write_inactive_is_noop;
          Alcotest.test_case "double write" `Quick test_note_write_double;
          Alcotest.test_case "distinct tags" `Quick test_note_write_distinct_tags;
        ] );
      ( "race-schedule",
        [
          Alcotest.test_case "permutation covers" `Quick test_permute_is_permutation;
          Alcotest.test_case "seeded determinism" `Quick test_permute_deterministic;
        ] );
      ( "race-pool",
        [
          Alcotest.test_case "checked loop clean" `Quick
            test_pooled_loop_clean_under_race;
          Alcotest.test_case "double write detected" `Quick
            test_pooled_double_write_detected;
          Alcotest.test_case "off = unchecked" `Quick test_race_off_pool_unchecked;
          Alcotest.test_case "pool_for publication" `Quick test_pool_for_no_duplicates;
        ] );
      ( "fp",
        [
          Alcotest.test_case "check records" `Quick test_fp_check_records;
          Alcotest.test_case "check_array index" `Quick test_fp_check_array_index;
          Alcotest.test_case "growth threshold" `Quick test_fp_growth_threshold;
          Alcotest.test_case "skyline NaN" `Quick test_fp_skyline_nan_detected;
          Alcotest.test_case "supernodal NaN" `Quick test_fp_supernodal_nan_detected;
          Alcotest.test_case "modal NaN" `Quick test_fp_modal_nan_detected;
          Alcotest.test_case "supernodal clean" `Quick test_fp_supernodal_solve_clean;
          Alcotest.test_case "AC sweep clean" `Quick test_fp_ac_sweep_clean;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "findings clear" `Quick test_findings_clear;
          Alcotest.test_case "disabled zero-alloc" `Quick test_disabled_zero_alloc;
        ] );
      ("properties", [ Qtest.to_alcotest prop_checked_sweep_bitwise ]);
    ]
