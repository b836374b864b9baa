(* The Krylov layer: the fused Gram–Schmidt sweep and what it builds.

   1. golden/krylov.bits: SyMPVL's T, Δ and ρ and PRIMA's and SPRIM's
      reduced matrices (Krylov_fixture) reproduce, bit for bit, what
      the unfused dot/axpy kernels computed.
   2. A qcheck property: Ortho.sweep equals the sequential
      Vec.dot3/Vec.dot + Vec.axpy reference bit for bit — random
      lengths and entries, ±1 J weights or none, runs of single- and
      multi-member blocks — in the result and in every recorded
      coefficient.
   3. The windowed band Lanczos stops at the Krylov dimension N and
      reports exhaustion there (it ran past N and indexed out of
      bounds).
   4. The work counters krylov.projections and krylov.op_applies:
      equal at jobs 1 and 2, and op_applies is one per Lanczos step on
      a definite net without deflation. *)

module Ortho = Sympvl.Ortho

let find_path cands = List.find_opt Sys.file_exists cands |> Option.value ~default:(List.hd cands)

(* ------------------------------------------------------------------ *)
(* 1. fixture                                                          *)

let test_fixture () =
  let ic = open_in (find_path [ "golden/krylov.bits"; "test/golden/krylov.bits" ]) in
  let want = ref [] in
  (try
     while true do
       want := input_line ic :: !want
     done
   with End_of_file -> close_in ic);
  let want = List.rev !want and got = Krylov_fixture.lines () in
  Alcotest.(check int) "line count" (List.length want) (List.length got);
  List.iter2
    (fun w g -> if w <> g then Alcotest.failf "Krylov output moved:\n  fixture %s\n  now     %s" w g)
    want got

(* ------------------------------------------------------------------ *)
(* 2. sweep = sequential reference                                     *)

let bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* a random instance: the vector, the optional weight and the blocks;
   a multi-member block's coefficients are a fixed random linear map of
   its inner products (standing in for the Δ⁽ᵞ⁾ solve) *)
let instance seed =
  let rng = Linalg.Rng.create seed in
  let n = 1 + Linalg.Rng.int rng 40 in
  let vec () =
    Array.init n (fun _ -> Linalg.Rng.gaussian rng *. (10.0 ** Linalg.Rng.uniform rng (-3.0) 3.0))
  in
  let weight =
    match Linalg.Rng.int rng 3 with
    | 0 -> None
    | 1 -> Some (Array.make n 1.0)
    | _ -> Some (Array.init n (fun _ -> if Linalg.Rng.int rng 2 = 0 then 1.0 else -1.0))
  in
  let blocks =
    Array.init (Linalg.Rng.int rng 7) (fun _ ->
        let m = if Linalg.Rng.int rng 3 = 0 then 2 + Linalg.Rng.int rng 2 else 1 in
        let vecs = Array.init m (fun _ -> vec ()) in
        if m = 1 && Linalg.Rng.int rng 2 = 0 then Ortho.singleton vecs.(0)
        else
          let a = Array.init m (fun _ -> Array.init m (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0)) in
          let coeffs d =
            Array.map (fun row -> Array.fold_left ( +. ) 0.0 (Array.mapi (fun k x -> x *. d.(k)) row)) a
          in
          { Ortho.vecs; coeffs })
  in
  (vec (), weight, blocks)

let reference weight blocks v =
  let recorded = ref [] in
  Array.iter
    (fun b ->
      let d =
        Array.map
          (fun q -> match weight with Some w -> Linalg.Vec.dot3 q w v | None -> Linalg.Vec.dot q v)
          b.Ortho.vecs
      in
      let c = b.Ortho.coeffs d in
      recorded := Array.copy c :: !recorded;
      Array.iteri (fun k q -> Linalg.Vec.axpy (-.c.(k)) q v) b.Ortho.vecs)
    blocks;
  List.rev !recorded

let prop_sweep =
  QCheck.Test.make ~count:300 ~name:"sweep = sequential dot3/axpy bit for bit"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let v, weight, blocks = instance seed in
      let v_ref = Array.copy v in
      let want = reference weight blocks v_ref in
      let got = ref [] in
      Ortho.sweep ?weight ~record:(fun _ c -> got := Array.copy c :: !got) blocks v;
      bits_eq v v_ref && List.length want = List.length !got
      && List.for_all2 bits_eq want (List.rev !got))

(* ------------------------------------------------------------------ *)
(* 3. windowed process at the Krylov dimension                         *)

(* test_simulate's "sweep grid and model" case: the windowed run raised
   Invalid_argument "index out of bounds" here *)
let test_window_stops_at_n () =
  let m = Circuit.Mna.assemble_rc (Circuit.Generators.rc_line ~sections:5 ()) in
  let n = m.Circuit.Mna.n in
  let order = 8 in
  Alcotest.(check bool) "order exceeds N" true (order > n);
  List.iter
    (fun full_ortho ->
      let opts =
        { (Sympvl.Reduce.default ~order) with Sympvl.Reduce.full_ortho; band = Some (1e6, 1e9) }
      in
      let md = Sympvl.Reduce.mna ~opts ~order m in
      let tag = if full_ortho then "full" else "windowed" in
      Alcotest.(check bool) (tag ^ ": order <= N") true (md.Sympvl.Model.order <= n);
      Alcotest.(check bool) (tag ^ ": exhausted") true md.Sympvl.Model.exhausted)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* 4. work counters                                                    *)

let work jobs =
  Parallel.set_jobs jobs;
  let grid = Circuit.Mna.auto (Circuit.Generators.rc_grid ~rows:12 ~cols:12 ()) in
  let peec = Circuit.Mna.auto (Circuit.Generators.peec_partial ~conductors:2 ~segments:6 ()) in
  Obs.reset ();
  Obs.enable ();
  let md = Sympvl.Reduce.mna ~order:24 grid in
  let sympvl = (Obs.counter_value "krylov.projections", Obs.counter_value "krylov.op_applies") in
  ignore (Sympvl.Rom.reduce ~order:10 `Prima peec);
  ignore (Sympvl.Rom.reduce ~order:10 `Sprim peec);
  let all = (Obs.counter_value "krylov.projections", Obs.counter_value "krylov.op_applies") in
  Obs.disable ();
  Obs.reset ();
  (md, sympvl, all)

let test_counters () =
  let jobs0 = Parallel.jobs () in
  let md, (proj1, ops1), all1 = work 1 in
  let _, _, all2 = work 2 in
  Parallel.set_jobs jobs0;
  Alcotest.(check (pair (float 0.0) (float 0.0))) "jobs 1 = jobs 2" all1 all2;
  Alcotest.(check int) "no deflation" 0 md.Sympvl.Model.deflations;
  Alcotest.(check (float 0.0)) "one F apply per Lanczos step"
    (float_of_int md.Sympvl.Model.order) ops1;
  Alcotest.(check bool) "projections counted" true (proj1 > 0.0);
  Alcotest.(check bool) "PRIMA/SPRIM applies counted" true (snd all1 > ops1)

let () =
  Alcotest.run "krylov"
    [
      ("fixture", [ Alcotest.test_case "T, Δ, ρ and PRIMA/SPRIM bit for bit" `Quick test_fixture ]);
      ("sweep", [ Qtest.to_alcotest prop_sweep ]);
      ("window", [ Alcotest.test_case "stops at the Krylov dimension" `Quick test_window_stops_at_n ]);
      ("counters", [ Alcotest.test_case "deterministic work counters" `Quick test_counters ]);
    ]
