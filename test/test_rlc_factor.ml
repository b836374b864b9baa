(* Sparse LDLᵀ of general-form RLC pencils.

   At s₀ = 0 the general RLC pencil K₀ = [[Gn, Aᵀ], [A, 0]] is
   factored through the augmented-KKT congruence TᵀK₀T with a
   current-after-node ordering (see Pencil); at a real s₀ > 0 and at
   s = jω the supernodal backend (4 096 unknowns and up) eliminates
   every current before its nodes instead. These tests pin:

   1. qcheck: on random lint-clean RLCk netlists — R–L chains whose
      resistors join node pairs with no DC path of their own (Gn is
      singular), terminations, and K cards — the s₀ = 0 factor is
      sparse, has exactly one negative pivot per inductor current, and
      solves like the dense Bunch–Kaufman factor to 1e-9.
   2. The shipped general-form examples reduce with no dense fallback
      ([factor.fallback_dense] = 0).
   3. SyMPVL and SPRIM share one general-form context, and its factor
      satisfies M J Mᵀ = K through m_inv / mt_inv.
   4. Supernodal.order ~late eliminates every late index after its
      neighbours, and ~early every early index before them.
   5. A pencil that is singular at s₀ = 0 (an inductor loop) still
      falls back to dense, loudly: a warning naming the unknown, the
      counter, then the shift retry.
   6. At 4 096 unknowns and up (the supernodal backend, default
      configuration): a PEEC general-form pencil factors sparsely at
      the automatic shift and at jω, matching a dense complex LU; an
      RC grid's jω transfer matches the skyline oracle; and the
      transient engine's of_matrices + reserve + factor_with path
      solves its stamped matrix. *)

module N = Circuit.Netlist
module M = Circuit.Mna
module F = Sympvl.Factor

let find_path cands =
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let mna_of base =
  M.auto
    (Circuit.Parser.parse_file
       (find_path
          [ "../examples/netlists/" ^ base ^ ".cir"; "examples/netlists/" ^ base ^ ".cir" ]))

let max_abs v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 v

let rel_diff x y =
  let d = Array.mapi (fun i xi -> xi -. y.(i)) x in
  max_abs d /. Float.max (max_abs y) 1e-300

(* K⁻¹b into a fresh vector, leaving b alone *)
let solve (f : F.t) b =
  let x = Linalg.Vec.create f.F.n in
  f.F.solve (Array.copy b) x;
  x

let random_vec rng n = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0)

let negatives (f : F.t) = Array.fold_left (fun k j -> if j < 0.0 then k + 1 else k) 0 f.F.j

(* ------------------------------------------------------------------ *)
(* 1. random RLCk chains                                               *)

let prop_sparse_kkt =
  QCheck.Test.make ~count:60
    ~name:"general RLCk at s0 = 0: sparse factor, one negative pivot per current, dense-exact solve"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nl = Random_nets.rlck seed in
      QCheck.assume
        (List.for_all
           (fun d -> d.Circuit.Diagnostic.severity <> Circuit.Diagnostic.Error)
           (Analysis.Lint.run nl));
      let mna = M.assemble nl in
      let ctx = Sympvl.Pencil.create mna in
      let fac = Sympvl.Pencil.factor ctx ~shift:0.0 in
      let dense = F.of_dense (Sparse.Csr.to_dense mna.M.g) in
      let b = random_vec (Random.State.make [| seed; 1 |]) mna.M.n in
      let err = rel_diff (solve fac b) (solve dense b) in
      if fac.F.kind = `Dense then QCheck.Test.fail_report "fell back to dense";
      if negatives fac <> mna.M.n - mna.M.n_nodes then
        QCheck.Test.fail_reportf "%d negative pivots for %d currents" (negatives fac)
          (mna.M.n - mna.M.n_nodes);
      if err > 1e-9 then QCheck.Test.fail_reportf "solve differs from dense by %.3e" err;
      true)

(* ------------------------------------------------------------------ *)
(* 2. shipped general-form examples: no dense fallback                 *)

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) f

let test_no_fallback base () =
  let mna = mna_of base in
  Alcotest.(check bool) (base ^ " is general form") true (mna.M.n_nodes < mna.M.n);
  with_obs (fun () ->
      List.iter
        (fun eng ->
          let ctx = Sympvl.Pencil.create mna in
          ignore (Sympvl.Rom.reduce ~ctx ~order:6 eng mna))
        [ `Sprim; `Sympvl ];
      Alcotest.(check bool) "factored" true (Obs.counter_value "factor.count" >= 1.0);
      Alcotest.(check (float 0.0)) "factor.fallback_dense" 0.0
        (Obs.counter_value "factor.fallback_dense"))

(* ------------------------------------------------------------------ *)
(* 3. one context, two engines, M J Mᵀ = K                             *)

let test_shared_context () =
  let mna = mna_of "peec_coupled" in
  let ctx = Sympvl.Pencil.create mna in
  let sympvl = Sympvl.Rom.reduce ~ctx ~order:6 `Sympvl mna in
  let sprim = Sympvl.Rom.reduce ~ctx ~order:6 `Sprim mna in
  Alcotest.(check (float 0.0)) "sympvl at s0 = 0" 0.0 (Sympvl.Rom.shift sympvl);
  Alcotest.(check (float 0.0)) "sprim at s0 = 0" 0.0 (Sympvl.Rom.shift sprim);
  let fac = Sympvl.Pencil.factor ctx ~shift:0.0 in
  Alcotest.(check bool) "sparse factor" true (fac.F.kind = `Supernodal);
  Alcotest.(check int) "one negative pivot per current" (mna.M.n - mna.M.n_nodes)
    (negatives fac);
  (* M⁻¹ K M⁻ᵀ = J on random vectors *)
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 8 do
    let v = random_vec rng mna.M.n in
    let w = Array.make mna.M.n 0.0 and z = Array.make mna.M.n 0.0 in
    fac.F.mt_inv (Array.copy v) w;
    fac.F.m_inv (Sparse.Csr.mul_vec mna.M.g w) z;
    let jv = Array.mapi (fun i x -> fac.F.j.(i) *. x) v in
    let err = rel_diff z jv in
    if err > 1e-10 then Alcotest.failf "M⁻¹ K M⁻ᵀ differs from J by %.3e" err
  done;
  (* both models reproduce the exact Z(0) — moment 0 at the shared point *)
  let p = mna.M.b.Linalg.Mat.cols in
  let z0 = Sympvl.Moments.exact ~ctx ~shift:0.0 mna 1 in
  List.iter
    (fun (name, model) ->
      let z = Sympvl.Rom.eval model Complex.zero in
      for i = 0 to p - 1 do
        for j = 0 to p - 1 do
          let exact = Linalg.Mat.get z0.(0) i j in
          let d = Float.abs ((Linalg.Cmat.get z i j).Complex.re -. exact) in
          if d > 1e-8 *. Float.max 1.0 (Float.abs exact) then
            Alcotest.failf "%s: Z(0)[%d,%d] off by %.3e" name i j d
        done
      done)
    [ ("sympvl", sympvl); ("sprim", sprim) ]

(* ------------------------------------------------------------------ *)
(* 4. the constrained order                                            *)

(* every index v >= nodes sits after ([`Late]) or before ([`Early])
   each of its neighbours below nodes *)
let test_split_order dir () =
  let check name (g : Sparse.Csr.t) nodes =
    let perm =
      match dir with
      | `Late -> Sparse.Supernodal.order ~late:nodes g
      | `Early -> Sparse.Supernodal.order ~early:nodes g
    in
    let pos = Array.make (Array.length perm) 0 in
    Array.iteri (fun k v -> pos.(v) <- k) perm;
    for v = nodes to g.Sparse.Csr.rows - 1 do
      Sparse.Csr.iter_row g v (fun u _ ->
          if u < nodes then
            match dir with
            | `Late when pos.(u) > pos.(v) ->
              Alcotest.failf "%s: current %d placed before its node %d" name v u
            | `Early when pos.(u) < pos.(v) ->
              Alcotest.failf "%s: current %d placed after its node %d" name v u
            | _ -> ())
    done
  in
  List.iter
    (fun base ->
      let mna = mna_of base in
      check base mna.M.g mna.M.n_nodes)
    [ "peec_coupled"; "coupled_lines" ];
  let mna = M.assemble (Circuit.Generators.peec_partial ~conductors:4 ~segments:12 ()) in
  check "peec_partial 4x12" mna.M.g mna.M.n_nodes

(* ------------------------------------------------------------------ *)
(* 5. a singular pencil still degrades loudly                          *)

let test_singular_falls_back () =
  (* two inductors in parallel close a loop: A loses row rank, so K₀
     is singular and only a shift can regularise it *)
  let nl = N.create () in
  let a = N.node nl "a" and b = N.node nl "b" in
  N.add_resistor nl a b 10.0;
  N.add_inductor nl ~name:"L1" b 0 1e-9;
  N.add_inductor nl ~name:"L2" b 0 2e-9;
  N.add_capacitor nl b 0 1e-12;
  N.add_port nl "p" a;
  let mna = M.assemble nl in
  let warnings = ref [] in
  let reporter =
    {
      Logs.report =
        (fun _src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun s ->
                  if level = Logs.Warning then warnings := s :: !warnings;
                  over ();
                  k ())
                fmt));
    }
  in
  let saved_reporter = Logs.reporter () and saved_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter saved_reporter;
      Logs.set_level saved_level)
    (fun () ->
      with_obs (fun () ->
          let ctx = Sympvl.Pencil.create mna in
          let s0 = Sympvl.Pencil.with_auto_shift ctx (fun s0 _ -> s0) in
          Alcotest.(check bool) "shift retry" true (s0 > 0.0);
          Alcotest.(check bool) "dense fallback counted" true
            (Obs.counter_value "factor.fallback_dense" >= 1.0)));
  let named =
    List.exists
      (fun w ->
        let has sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length w && (String.sub w i n = sub || go (i + 1)) in
          go 0
        in
        has "dense" && (has "node-voltage unknown" || has "inductor-current unknown"))
      !warnings
  in
  Alcotest.(check bool) "warning names the failing unknown" true named

(* ------------------------------------------------------------------ *)
(* 6. 4 096 unknowns and up: the supernodal backend by default         *)

let jw f = { Complex.re = 0.0; im = 2.0 *. Float.pi *. f }

let cmat_rel_diff (a : Linalg.Cmat.t) (b : Linalg.Cmat.t) =
  let err = ref 0.0 and scale = ref 1e-300 in
  for i = 0 to a.Linalg.Cmat.rows - 1 do
    for j = 0 to a.Linalg.Cmat.cols - 1 do
      let x = Linalg.Cmat.get a i j and y = Linalg.Cmat.get b i j in
      err := Float.max !err (Complex.norm (Complex.sub x y));
      scale := Float.max !scale (Complex.norm y)
    done
  done;
  !err /. !scale

(* Bᵀ(G + sC)⁻¹B by a dense complex LU with partial pivoting *)
let dense_transfer (mna : M.t) s =
  let g = Sparse.Csr.to_dense mna.M.g and c = Sparse.Csr.to_dense mna.M.c in
  let b = Linalg.Cmat.of_real mna.M.b in
  let x = Linalg.Cmat.lu_solve_mat (Linalg.Cmat.lu_factor (Linalg.Cmat.lincomb Linalg.Cx.one g s c)) b in
  Linalg.Cmat.mul (Linalg.Cmat.transpose b) x

(* N = 16·(2·85 + 1) nodes + 16·85 currents = 4 096, the smallest
   general-form pencil on the supernodal backend. Under node-first AMD
   elimination every jω point raised Factor.Singular 2566 and the real
   factor at the automatic shift went dense; eliminating each current before its nodes factors
   both sparsely. *)
let test_peec_sparse () =
  let mna = M.assemble (Circuit.Generators.peec_partial ~conductors:16 ~segments:85 ()) in
  Alcotest.(check int) "N" 4096 mna.M.n;
  let ctx = Sympvl.Pencil.create mna in
  let z f = Sympvl.Pencil.transfer ctx (Sympvl.Pencil.factor_complex ctx (jw f)) in
  ignore (z 1e6);
  let err = cmat_rel_diff (z 1e9) (dense_transfer mna (jw 1e9)) in
  if err > 1e-9 then Alcotest.failf "Z(j2π·1 GHz) differs from a dense LU by %.3e" err;
  let freqs = [| 1e6; 1e8; 1e9; 1e10 |] in
  let s1 = Simulate.Ac.sweep ~jobs:1 mna freqs and s2 = Simulate.Ac.sweep ~jobs:2 mna freqs in
  let bits a = Array.map Int64.bits_of_float a in
  Array.iteri
    (fun k (z1 : Linalg.Cmat.t) ->
      let z2 = s2.Simulate.Ac.z.(k) in
      if bits z1.Linalg.Cmat.re <> bits z2.Linalg.Cmat.re
         || bits z1.Linalg.Cmat.im <> bits z2.Linalg.Cmat.im
      then Alcotest.failf "sweep differs between jobs 1 and 2 at %g Hz" freqs.(k))
    s1.Simulate.Ac.z;
  with_obs (fun () ->
      let fac = Sympvl.Pencil.factor ctx ~shift:(Sympvl.Pencil.auto_shift mna) in
      Alcotest.(check bool) "supernodal" true (fac.F.kind = `Supernodal);
      Alcotest.(check (float 0.0)) "factor.fallback_dense" 0.0
        (Obs.counter_value "factor.fallback_dense");
      Alcotest.(check int) "one negative pivot per current" (mna.M.n - mna.M.n_nodes)
        (negatives fac))

let rc_grid_64 () = M.assemble_rc (Circuit.Generators.rc_grid ~rows:64 ~cols:64 ())

(* the jω transfer of a 4 096-node RC grid against the natural-order
   skyline complex factor *)
let test_rc_grid_transfer () =
  let mna = rc_grid_64 () in
  let ctx = Sympvl.Pencil.create mna in
  let s = jw 1e9 in
  let z = Sympvl.Pencil.transfer ctx (Sympvl.Pencil.factor_complex ctx s) in
  let oracle = Sparse.Skyline.factor_complex s mna.M.g mna.M.c in
  let b = mna.M.b in
  let p = b.Linalg.Mat.cols in
  let want = Linalg.Cmat.create p p in
  for col = 0 to p - 1 do
    let x =
      Sparse.Skyline.Complex_sym.solve oracle
        (Array.init mna.M.n (fun i -> { Complex.re = Linalg.Mat.get b i col; im = 0.0 }))
    in
    for r = 0 to p - 1 do
      let acc = ref Complex.zero in
      for i = 0 to mna.M.n - 1 do
        let bi = Linalg.Mat.get b i r in
        if bi <> 0.0 then acc := Complex.add !acc (Complex.mul { Complex.re = bi; im = 0.0 } x.(i))
      done;
      Linalg.Cmat.set want r col !acc
    done
  done;
  let err = cmat_rel_diff z want in
  if err > 1e-9 then Alcotest.failf "Z differs from the skyline oracle by %.3e" err

(* the transient engine's Newton path on a 4 096-node RC pencil:
   stamps at positions outside the pattern, reserved first, then
   factored in; the solve is checked by its residual against the
   explicitly stamped matrix *)
let test_reserve_factor_with () =
  let mna = rc_grid_64 () in
  let g = mna.M.g and c = mna.M.c and n = mna.M.n in
  let ctx = Sympvl.Pencil.of_matrices g c in
  let extra = [| (0, n - 1, -2e-3); (0, 0, 2e-3); (n - 1, n - 1, 2e-3); (17, 17, 5e-4) |] in
  Sympvl.Pencil.reserve ctx (Array.map (fun (i, j, _) -> (i, j)) extra);
  let shift = 1e10 in
  let fac = Sympvl.Pencil.factor_with ctx ~shift ~extra in
  Alcotest.(check bool) "supernodal" true (fac.F.kind = `Supernodal);
  let tr = Sparse.Triplet.create n n in
  Array.iter (fun (i, j, v) -> if i = j then Sparse.Triplet.add tr i i v else Sparse.Triplet.add_sym tr i j v) extra;
  let a = Sparse.Csr.add (Sparse.Csr.add ~alpha:1.0 ~beta:shift g c) (Sparse.Csr.of_triplet tr) in
  let b = random_vec (Random.State.make [| 5 |]) n in
  let x = solve fac b in
  let err = rel_diff (Sparse.Csr.mul_vec a x) b in
  if err > 1e-10 then Alcotest.failf "residual %.3e" err

let () =
  Alcotest.run "rlc_factor"
    [
      ("properties", [ Qtest.to_alcotest prop_sparse_kkt ]);
      ( "examples",
        [
          Alcotest.test_case "peec_coupled no dense fallback" `Quick
            (test_no_fallback "peec_coupled");
          Alcotest.test_case "coupled_lines no dense fallback" `Quick
            (test_no_fallback "coupled_lines");
          Alcotest.test_case "sympvl + sprim share M J Mt = K" `Quick test_shared_context;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "currents after their nodes" `Quick (test_split_order `Late);
          Alcotest.test_case "currents before their nodes" `Quick (test_split_order `Early);
          Alcotest.test_case "singular pencil degrades loudly" `Quick
            test_singular_falls_back;
        ] );
      ( "large",
        [
          Alcotest.test_case "general form >= 4 096 unknowns factors sparsely" `Quick
            test_peec_sparse;
          Alcotest.test_case "rc grid >= 4 096 jw transfer = skyline oracle" `Quick
            test_rc_grid_transfer;
          Alcotest.test_case "of_matrices + reserve + factor_with >= 4 096" `Quick
            test_reserve_factor_with;
        ] );
    ]
