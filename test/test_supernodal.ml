(* Supernodal backend tests: scalable AMD (quotient-graph approximate
   minimum degree), fundamental-supernode detection, exact-fill
   agreement with the elimination-tree prediction, and the
   supernodal-vs-skyline numeric oracle. *)

let pattern_of_lists n rows =
  let tr = Sparse.Triplet.create n n in
  List.iteri (fun i cols -> List.iter (fun j -> Sparse.Triplet.add tr i j 1.0) cols) rows;
  Sparse.Csr.of_triplet tr

let random_spd rng n extra =
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i 2.0
  done;
  for _ = 1 to extra do
    let i = Linalg.Rng.int rng n and j = Linalg.Rng.int rng n in
    if i <> j then Sparse.Triplet.add_sym tr i j (-1.0 /. float_of_int (4 * n))
  done;
  Sparse.Csr.of_triplet tr

let grid_pattern rows cols =
  let n = rows * cols in
  let tr = Sparse.Triplet.create n n in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let u = (r * cols) + c in
      Sparse.Triplet.add tr u u 4.0;
      if r + 1 < rows then Sparse.Triplet.add_sym tr u ((r + 1) * cols + c) (-1.0);
      if c + 1 < cols then Sparse.Triplet.add_sym tr u ((r * cols) + c + 1) (-1.0)
    done
  done;
  Sparse.Csr.of_triplet tr

let is_permutation n perm =
  Array.length perm = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i -> i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true))
    perm

(* ------------------------------------------------------------------ *)
(* approximate minimum degree                                          *)

let test_amd_approx_permutation () =
  let rng = Linalg.Rng.create 42 in
  for _ = 1 to 20 do
    let n = 1 + Linalg.Rng.int rng 120 in
    let a = random_spd rng n (3 * n) in
    let perm = Sparse.Amd.order_approx a in
    Alcotest.(check bool) "valid permutation" true (is_permutation n perm)
  done

let test_amd_approx_quality_grid () =
  (* on a 2-D grid the approximate AMD must beat both natural order
     and RCM by a wide margin — that is its whole reason to exist *)
  let a = grid_pattern 30 30 in
  let n = a.Sparse.Csr.rows in
  let natural = Sparse.Etree.factor_nnz (Sparse.Etree.of_pattern a) in
  let rcm = Sparse.Etree.predicted_nnz a (Sparse.Rcm.order a) in
  let amd = Sparse.Etree.predicted_nnz a (Sparse.Amd.order_approx a) in
  Alcotest.(check bool)
    (Printf.sprintf "amd %d < rcm %d on a grid" amd rcm)
    true (amd < rcm);
  Alcotest.(check bool)
    (Printf.sprintf "amd %d < natural %d on a grid" amd natural)
    true (amd < natural);
  ignore n

let test_amd_approx_vs_exact () =
  (* the approximation is allowed to lose to the exact greedy, but not
     catastrophically: within 1.5x on small random SPD patterns *)
  let rng = Linalg.Rng.create 7 in
  for _ = 1 to 10 do
    let n = 20 + Linalg.Rng.int rng 80 in
    let a = random_spd rng n (2 * n) in
    let exact = Sparse.Etree.predicted_nnz a (Sparse.Amd.order a) in
    let approx = Sparse.Etree.predicted_nnz a (Sparse.Amd.order_approx a) in
    Alcotest.(check bool)
      (Printf.sprintf "approx %d <= 1.5 * exact %d" approx exact)
      true
      (float_of_int approx <= 1.5 *. float_of_int exact)
  done

let test_amd_dispatch_guard () =
  (* Amd.order keeps the never-worse-than-natural guarantee on both
     sides of the size cutoff *)
  let a = grid_pattern 40 40 in
  let n = a.Sparse.Csr.rows in
  let perm = Sparse.Amd.order a in
  Alcotest.(check bool) "valid permutation" true (is_permutation n perm);
  let natural = Sparse.Etree.factor_nnz (Sparse.Etree.of_pattern a) in
  let amd = Sparse.Etree.predicted_nnz a perm in
  Alcotest.(check bool) "never worse than natural" true (amd <= natural)

let test_etree_postorder () =
  let a = pattern_of_lists 7 [ [ 0; 3 ]; [ 1; 4 ]; [ 2; 4 ]; [ 3; 5 ]; [ 4; 5 ]; [ 5; 6 ]; [ 6 ] ]
  in
  let et = Sparse.Etree.of_pattern a in
  let post = Sparse.Etree.postorder et in
  Alcotest.(check bool) "postorder is a permutation" true (is_permutation 7 post);
  (* postorder preserves the factor nnz exactly *)
  Alcotest.(check int) "fill preserved"
    (Sparse.Etree.factor_nnz et)
    (Sparse.Etree.predicted_nnz a post);
  (* every node appears after all tree descendants *)
  let rank = Array.make 7 0 in
  Array.iteri (fun k j -> rank.(j) <- k) post;
  Array.iteri
    (fun j p -> if p <> -1 then Alcotest.(check bool) "child before parent" true (rank.(j) < rank.(p)))
    et.Sparse.Etree.parent

(* ------------------------------------------------------------------ *)
(* supernodal symbolic phase                                           *)

let test_supernode_detection () =
  (* a dense trailing block after an arrow pattern: columns sharing
     nested structure must coalesce into one supernode *)
  let n = 6 in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i 4.0
  done;
  (* columns 2..5 fully coupled; 0 and 1 hang off column 2 *)
  for i = 2 to n - 1 do
    for j = i + 1 to n - 1 do
      Sparse.Triplet.add_sym tr i j (-0.5)
    done
  done;
  Sparse.Triplet.add_sym tr 0 2 (-0.5);
  Sparse.Triplet.add_sym tr 1 2 (-0.5);
  let a = Sparse.Csr.of_triplet tr in
  let sym = Sparse.Supernodal.symbolic a in
  (* singleton supernodes {0} and {1} plus the fundamental {2,3,4,5} *)
  Alcotest.(check int) "three supernodes" 3 (Sparse.Supernodal.supernodes sym);
  Alcotest.(check int) "exact fill"
    (Sparse.Etree.factor_nnz (Sparse.Etree.of_pattern a))
    (Sparse.Supernodal.nnz sym)

let test_exact_fill_grid () =
  (* rc_grid-shaped pattern under the backend's own ordering: stored
     factor nnz must equal the elimination-tree prediction exactly *)
  let a = grid_pattern 20 25 in
  let perm = Sparse.Supernodal.order a in
  let pa = Sparse.Csr.permute_sym a perm in
  let sym = Sparse.Supernodal.symbolic pa in
  Alcotest.(check int) "stored nnz = predicted nnz"
    (Sparse.Etree.predicted_nnz a perm)
    (Sparse.Supernodal.nnz sym)

(* ------------------------------------------------------------------ *)
(* numeric oracle: supernodal vs skyline                               *)

let max_rel_err x y =
  let scale =
    Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1e-300 y
  in
  let e = ref 0.0 in
  Array.iteri (fun i v -> e := Float.max !e (Float.abs (v -. y.(i)) /. scale)) x;
  !e

let random_pencil rng n =
  (* RC-shaped SPD pair: diagonally dominant G, diagonal-plus-coupling C *)
  let g = random_spd rng n (3 * n) in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i (1.0 +. Linalg.Rng.float rng)
  done;
  for _ = 1 to n do
    let i = Linalg.Rng.int rng n and j = Linalg.Rng.int rng n in
    if i <> j then Sparse.Triplet.add_sym tr i j (-1e-3)
  done;
  (g, Sparse.Csr.of_triplet tr)

let test_real_oracle () =
  let rng = Linalg.Rng.create 11 in
  for _ = 1 to 8 do
    let n = 10 + Linalg.Rng.int rng 150 in
    let g, c = random_pencil rng n in
    let perm = Sparse.Supernodal.order ~c g in
    let pg = Sparse.Csr.permute_sym g perm in
    let pc = Sparse.Csr.permute_sym c perm in
    let s0 = 0.5 in
    let sym = Sparse.Supernodal.symbolic ~c:pc pg in
    let fac = Sparse.Supernodal.Real.factor sym s0 in
    let env = Sparse.Skyline.pencil_env pg pc in
    let oracle = Sparse.Skyline.factor_pencil_real env s0 in
    let b = Array.init n (fun _ -> (2.0 *. Linalg.Rng.float rng) -. 1.0) in
    let x = Sparse.Supernodal.Real.solve fac b in
    let y = Sparse.Skyline.Real.solve oracle b in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d rel err %g" n (max_rel_err x y))
      true
      (max_rel_err x y < 1e-9)
  done

let test_real_extra_stamps () =
  let rng = Linalg.Rng.create 23 in
  let n = 60 in
  let g, c = random_pencil rng n in
  let perm = Sparse.Supernodal.order ~c g in
  let pg = Sparse.Csr.permute_sym g perm in
  let pc = Sparse.Csr.permute_sym c perm in
  let sym = Sparse.Supernodal.symbolic ~c:pc pg in
  (* stamp onto existing pattern positions: diagonal plus a stored
     off-diagonal entry of G *)
  let offd = ref None in
  (try
     for i = 0 to n - 1 do
       Sparse.Csr.iter_row pg i (fun j _ -> if j < i then (offd := Some (i, j); raise Exit))
     done
   with Exit -> ());
  let i0, j0 = Option.get !offd in
  let extra = [| (3, 3, 0.7); (i0, j0, -0.2) |] in
  let fac = Sparse.Supernodal.Real.factor ~extra sym 1.0 in
  let env = Sparse.Skyline.pencil_env pg pc in
  let oracle = Sparse.Skyline.factor_pencil_real ~extra env 1.0 in
  let b = Array.init n (fun i -> Float.sin (float_of_int i)) in
  Alcotest.(check bool) "stamped solve matches skyline" true
    (max_rel_err (Sparse.Supernodal.Real.solve fac b) (Sparse.Skyline.Real.solve oracle b)
    < 1e-9);
  (* an out-of-pattern stamp must be rejected, not silently dropped *)
  Alcotest.check_raises "out-of-pattern stamp"
    (Invalid_argument "Supernodal: extra entry outside the factor pattern") (fun () ->
      let far = Array.init n (fun k -> k) in
      let i = far.(n - 1) and j = far.(0) in
      if Sparse.Csr.get pg i j = 0.0 && Sparse.Csr.get pc i j = 0.0 then
        ignore (Sparse.Supernodal.Real.factor ~extra:[| (i, j, 1.0) |] sym 1.0)
      else raise (Invalid_argument "Supernodal: extra entry outside the factor pattern"))

let test_complex_oracle () =
  let rng = Linalg.Rng.create 31 in
  for _ = 1 to 8 do
    let n = 10 + Linalg.Rng.int rng 120 in
    let g, c = random_pencil rng n in
    let perm = Sparse.Supernodal.order ~c g in
    let pg = Sparse.Csr.permute_sym g perm in
    let pc = Sparse.Csr.permute_sym c perm in
    let s = { Complex.re = 0.3; im = 2.0 *. Float.pi *. 1e3 } in
    let sym = Sparse.Supernodal.symbolic ~c:pc pg in
    let fac = Sparse.Supernodal.Complex_soa.factor sym s in
    let oracle = Sparse.Skyline.factor_complex s pg pc in
    let b = Array.init n (fun i -> { Complex.re = Float.cos (float_of_int i); im = 0.25 }) in
    let re = Array.map (fun z -> z.Complex.re) b in
    let im = Array.map (fun z -> z.Complex.im) b in
    Sparse.Supernodal.Complex_soa.solve_split fac re im;
    let y = Sparse.Skyline.Complex_sym.solve oracle b in
    let yre = Array.map (fun z -> z.Complex.re) y in
    let yim = Array.map (fun z -> z.Complex.im) y in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d re err %g" n (max_rel_err re yre))
      true (max_rel_err re yre < 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf "n=%d im err %g" n (max_rel_err im yim))
      true (max_rel_err im yim < 1e-9)
  done

let test_singular_raises () =
  let n = 4 in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i (if i = 2 then 0.0 else 1.0)
  done;
  Sparse.Triplet.add_sym tr 0 2 0.0;
  let a = Sparse.Csr.of_triplet tr in
  let sym = Sparse.Supernodal.symbolic a in
  Alcotest.check_raises "zero pivot" (Sparse.Supernodal.Singular 2) (fun () ->
      ignore (Sparse.Supernodal.Real.factor sym 0.0))

(* ------------------------------------------------------------------ *)
(* port transfer: Z = Yᵀ D⁻¹ Y over the ports' elimination-tree reach  *)

(* the reach against an independent closure: every etree ancestor of
   every row, walked on Etree.of_pattern's parent array *)
let ancestor_closure pat rows =
  let parent = (Sparse.Etree.of_pattern pat).Sparse.Etree.parent in
  let n = pat.Sparse.Csr.rows in
  let mark = Array.make n false in
  Array.iter
    (fun r ->
      let j = ref r in
      while !j >= 0 do
        mark.(!j) <- true;
        j := parent.(!j)
      done)
    rows;
  Array.of_list (List.filter (fun j -> mark.(j)) (List.init n Fun.id))

let test_reach_path () =
  (* a hand-built tree: 0 → 2, 1 → 2, 2 → 5, 3 → 4 → 5, 5 → 6 → 7 *)
  let a =
    pattern_of_lists 8
      [ [ 0; 2 ]; [ 1; 2 ]; [ 2; 5 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ]; [ 6; 7 ]; [ 7 ] ]
  in
  let sym = Sparse.Supernodal.symbolic a in
  let check name rows want =
    Alcotest.(check (array int)) name want
      (Sparse.Supernodal.reach_columns (Sparse.Supernodal.reach sym rows));
    Alcotest.(check (array int)) (name ^ " = closure") (ancestor_closure a rows)
      (Sparse.Supernodal.reach_columns (Sparse.Supernodal.reach sym rows))
  in
  check "leaf 1" [| 1 |] [| 1; 2; 5; 6; 7 |];
  check "leaf 3" [| 3 |] [| 3; 4; 5; 6; 7 |];
  check "two leaves, repeated" [| 0; 3; 0 |] [| 0; 2; 3; 4; 5; 6; 7 |];
  check "root only" [| 7 |] [| 7 |];
  check "none" [||] [||];
  Alcotest.check_raises "row out of range" (Invalid_argument "Supernodal.reach: row out of range")
    (fun () -> ignore (Sparse.Supernodal.reach sym [| 8 |]))

(* a strongly coupled pencil, so that L and hence Y = L⁻¹B are far
   from the identity and far from real: G with off-diagonals in
   [-1, -0.1] and a dominant diagonal — positive, or negative on the
   trailing [neg] unknowns (an indefinite G, like MNA's current rows)
   — and C on the same pattern with independent weights *)
let coupled_pencil rng n ~neg =
  let offd = ref [] and dg = Array.make n 1.0 and dc = Array.make n 1.0 in
  for _ = 1 to 2 * n do
    let i = Linalg.Rng.int rng n and j = Linalg.Rng.int rng n in
    if i <> j then begin
      let vg = -0.1 -. (0.9 *. Linalg.Rng.float rng) and vc = -.Linalg.Rng.float rng in
      offd := (i, j, vg, vc) :: !offd;
      dg.(i) <- dg.(i) -. vg;
      dg.(j) <- dg.(j) -. vg;
      dc.(i) <- dc.(i) -. vc;
      dc.(j) <- dc.(j) -. vc
    end
  done;
  let build d pick =
    let tr = Sparse.Triplet.create n n in
    Array.iteri (fun i d -> Sparse.Triplet.add tr i i (if i >= n - neg then -.d else d)) d;
    List.iter (fun e -> let i, j, v = pick e in Sparse.Triplet.add_sym tr i j v) !offd;
    Sparse.Csr.of_triplet tr
  in
  (build dg (fun (i, j, vg, _) -> (i, j, vg)), build dc (fun (i, j, _, vc) -> (i, j, vc)))

(* random sparse ports in permuted coordinates: one to three entries
   each, rows shared between ports, and one port on the last column *)
let random_ports rng n p =
  let idx =
    Array.init p (fun c ->
        if c = p - 1 then [| n - 1 |]
        else if c > 0 && Linalg.Rng.int rng 3 = 0 then [| n / 2 |]
        else begin
          let k = 1 + Linalg.Rng.int rng 3 in
          let rows = List.sort_uniq Int.compare (List.init k (fun _ -> Linalg.Rng.int rng n)) in
          Array.of_list rows
        end)
  in
  let vals = Array.map (Array.map (fun _ -> (2.0 *. Linalg.Rng.float rng) -. 1.0)) idx in
  (idx, vals)

(* the per-port reference: one complex solve per port, then Bᵀx *)
let per_port solve n idx vals =
  let p = Array.length idx in
  let z = Linalg.Cmat.create p p in
  for c = 0 to p - 1 do
    let re = Array.make n 0.0 and im = Array.make n 0.0 in
    Array.iteri (fun k i -> re.(i) <- vals.(c).(k)) idx.(c);
    solve re im;
    for r = 0 to p - 1 do
      let zr = ref 0.0 and zi = ref 0.0 in
      Array.iteri
        (fun k i ->
          zr := !zr +. (vals.(r).(k) *. re.(i));
          zi := !zi +. (vals.(r).(k) *. im.(i)))
        idx.(r);
      Linalg.Cmat.set z r c { Complex.re = !zr; im = !zi }
    done
  done;
  z

let cmat_rel (a : Linalg.Cmat.t) (b : Linalg.Cmat.t) =
  Linalg.Cmat.dist_max a b /. Float.max (Linalg.Cmat.max_abs b) 1e-300

let bits (z : Linalg.Cmat.t) =
  Array.map Int64.bits_of_float (Array.append z.Linalg.Cmat.re z.Linalg.Cmat.im)

let bitwise_symmetric z = bits z = bits (Linalg.Cmat.transpose z)

let test_port_transfer () =
  let rng = Linalg.Rng.create 47 in
  List.iter
    (fun kind ->
      for _ = 1 to 8 do
        let n = 20 + Linalg.Rng.int rng 200 in
        let g, c =
          match kind with
          | `Spd -> coupled_pencil rng n ~neg:0
          | `Indefinite -> coupled_pencil rng n ~neg:(1 + Linalg.Rng.int rng (n / 4))
        in
        let perm = Sparse.Supernodal.order ~c g in
        let pg = Sparse.Csr.permute_sym g perm in
        let pc = Sparse.Csr.permute_sym c perm in
        let sym = Sparse.Supernodal.symbolic ~c:pc pg in
        let p = 1 + Linalg.Rng.int rng 9 in
        let idx, vals = random_ports rng n p in
        let reach = Sparse.Supernodal.reach sym (Array.concat (Array.to_list idx)) in
        Alcotest.(check (array int)) "reach = ancestor closure"
          (ancestor_closure (Sparse.Csr.add pg pc) (Array.concat (Array.to_list idx)))
          (Sparse.Supernodal.reach_columns reach);
        let s = { Complex.re = 0.1; im = 2.0 *. Float.pi *. (0.05 +. Linalg.Rng.float rng) } in
        let fac = Sparse.Supernodal.Complex_soa.factor sym s in
        let z = Sparse.Supernodal.Complex_soa.transfer fac reach idx vals in
        let want = per_port (Sparse.Supernodal.Complex_soa.solve_split fac) n idx vals in
        let err = cmat_rel z want in
        Alcotest.(check bool) (Printf.sprintf "n=%d p=%d rel err %g" n p err) true (err < 1e-12);
        Alcotest.(check bool) "Z bitwise symmetric" true (bitwise_symmetric z)
      done)
    [ `Spd; `Indefinite ];
  (* a reach built on another symbolic phase is refused *)
  let g, c = random_pencil rng 30 in
  let sym = Sparse.Supernodal.symbolic ~c g in
  let other = Sparse.Supernodal.symbolic ~c g in
  let fac = Sparse.Supernodal.Complex_soa.factor sym Complex.one in
  Alcotest.check_raises "foreign reach"
    (Invalid_argument "Supernodal.Complex_soa.transfer: reach of another symbolic phase")
    (fun () ->
      ignore
        (Sparse.Supernodal.Complex_soa.transfer fac
           (Sparse.Supernodal.reach other [| 0 |])
           [| [| 0 |] |] [| [| 1.0 |] |]))

(* a 64×64 RC grid (4 096 nodes: the supernodal backend): the exact
   sweep is bitwise identical at jobs 1 and 2 and with the race and fp
   sanitizers on, and stays within 1e-12 of per-port solves after
   [reserve] rebuilds the symbolic phase and its reach *)
let test_grid_transfer_bitwise () =
  let mna = Circuit.Mna.assemble_rc (Circuit.Generators.rc_grid ~rows:64 ~cols:64 ()) in
  let ws = Simulate.Ac.workspace mna in
  let freqs = Simulate.Ac.log_freqs ~points:6 1e6 1e10 in
  let sweep_bits (sw : Simulate.Ac.sweep) = Array.map bits sw.Simulate.Ac.z in
  let base = Simulate.Ac.sweep_ws ~jobs:1 mna ws freqs in
  Array.iter (fun z -> Alcotest.(check bool) "symmetric" true (bitwise_symmetric z)) base.z;
  Alcotest.(check bool) "jobs 2 = jobs 1" true
    (sweep_bits (Simulate.Ac.sweep_ws ~jobs:2 mna ws freqs) = sweep_bits base);
  let race = San.race () and fp = San.fp () in
  San.set ~race:true ~fp:true ();
  San.clear_findings ();
  let checked =
    Fun.protect
      ~finally:(fun () -> San.set ~race ~fp ())
      (fun () -> Simulate.Ac.sweep_ws ~jobs:2 mna ws freqs)
  in
  Alcotest.(check bool) "SYMOR_SAN=race,fp = plain" true (sweep_bits checked = sweep_bits base);
  Alcotest.(check int) "no fp findings" 0 (List.length (San.findings ()));
  let n = mna.Circuit.Mna.n in
  let s = Linalg.Cx.im (2.0 *. Float.pi *. 1e9) in
  let ctx = Sympvl.Pencil.create mna in
  Sympvl.Pencil.reserve ctx [| (0, n - 1); (17, 4000) |];
  let fac = Sympvl.Pencil.factor_complex ctx s in
  let want =
    per_port (Sympvl.Pencil.csolve_split fac) n (Sympvl.Pencil.port_idx ctx)
      (Sympvl.Pencil.port_val ctx)
  in
  let err = cmat_rel (Sympvl.Pencil.transfer ctx fac) want in
  Alcotest.(check bool) (Printf.sprintf "after reserve: rel err %g" err) true (err < 1e-12)

let () =
  Alcotest.run "supernodal"
    [
      ( "amd",
        [
          Alcotest.test_case "approx produces permutations" `Quick test_amd_approx_permutation;
          Alcotest.test_case "approx beats rcm+natural on grids" `Quick test_amd_approx_quality_grid;
          Alcotest.test_case "approx within 1.5x of exact" `Quick test_amd_approx_vs_exact;
          Alcotest.test_case "order dispatch keeps guard" `Quick test_amd_dispatch_guard;
          Alcotest.test_case "etree postorder" `Quick test_etree_postorder;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "supernode detection" `Quick test_supernode_detection;
          Alcotest.test_case "exact fill on grid" `Quick test_exact_fill_grid;
        ] );
      ( "numeric",
        [
          Alcotest.test_case "real pencil vs skyline" `Quick test_real_oracle;
          Alcotest.test_case "extra stamps" `Quick test_real_extra_stamps;
          Alcotest.test_case "complex pencil vs skyline" `Quick test_complex_oracle;
          Alcotest.test_case "singular pivot" `Quick test_singular_raises;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "reach is the ancestor closure" `Quick test_reach_path;
          Alcotest.test_case "port transfer" `Quick test_port_transfer;
          Alcotest.test_case "64x64 grid bitwise at jobs 1/2 and sanitized" `Quick
            test_grid_transfer_bitwise;
        ] );
    ]
