type t = Realisation.t

(* the congruence projection (VᵀGV, VᵀCV, VᵀB) lives in the physical
   pencil variable — the shift only chose the Krylov space. G and C
   stay sparse: Vᵀ(A·V) with the sparse product is the dense
   congruence bit for bit *)
let project ~shift (m : Circuit.Mna.t) v =
  let vt = Linalg.Mat.transpose v in
  let cong a = Linalg.Mat.mul vt (Sparse.Csr.mul_dense a v) in
  Realisation.congruence ~shift ~variable:m.Circuit.Mna.variable ~gain:m.Circuit.Mna.gain
    (cong m.Circuit.Mna.g) (cong m.Circuit.Mna.c) (Linalg.Mat.mul vt m.Circuit.Mna.b)

(* An orthonormal basis grown one candidate at a time by two passes of
   modified Gram–Schmidt through the shared sweep; a candidate that
   shrinks below 1e-10 of its norm is numerically dependent and dropped.
   [add] returns the accepted unit vector. *)
let add basis v =
  let w = Linalg.Vec.copy v in
  let n0 = Linalg.Vec.norm2 w in
  Ortho.sweep (Array.append !basis !basis) w;
  let n1 = Linalg.Vec.norm2 w in
  if n1 > 1e-10 *. Float.max n0 1e-300 then begin
    Linalg.Vec.scale_ip (1.0 /. n1) w;
    basis := Array.append !basis [| Ortho.singleton w |];
    Some w
  end
  else None

let to_mat n basis =
  let v = Linalg.Mat.create n (Array.length !basis) in
  Array.iteri (fun k q -> Linalg.Mat.set_col v k q.Ortho.vecs.(0)) !basis;
  v

(* one application of K⁻¹C *)
let apply solve c v =
  if Obs.tracing () then Obs.count "krylov.op_applies" 1;
  solve (Sparse.Csr.mul_vec c v)

let krylov_basis ~order ~solve (m : Circuit.Mna.t) =
  let c = m.Circuit.Mna.c in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let basis = ref [||] in
  let size () = Array.length !basis in
  let accept v = if size () < order then add basis v else None in
  (* start block K⁻¹B *)
  let current =
    ref
      (List.filter_map
         (fun k -> accept (solve (Linalg.Mat.col m.Circuit.Mna.b k)))
         (List.init p Fun.id))
  in
  (* Arnoldi sweeps: apply K⁻¹C to the newest accepted block *)
  while size () < order && !current <> [] do
    current :=
      List.filter_map
        (fun v -> if size () < order then accept (apply solve c v) else None)
        !current
  done;
  to_mat m.Circuit.Mna.n basis

let reduce ?ctx ?shift ?band ~order (m : Circuit.Mna.t) =
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  (* shift resolution and factorisation via the shared policy: PRIMA
     expands about the exact same point SyMPVL/MPVL would pick *)
  Pencil.with_auto_shift ?shift ?band ctx @@ fun s0 fac ->
  project ~shift:s0 m (krylov_basis ~order ~solve:fac.Factor.solve m)

let shift_of_hz (m : Circuit.Mna.t) f =
  let w = 2.0 *. Float.pi *. f in
  match m.Circuit.Mna.variable with
  | Circuit.Mna.S -> w
  | Circuit.Mna.S_squared -> w *. w

let reduce_multipoint ?ctx ~points (m : Circuit.Mna.t) =
  assert (points <> []);
  let c = m.Circuit.Mna.c in
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let basis = ref [||] in
  List.iter
    (fun (s0, steps) ->
      (* repeated expansion points are cache hits on the context *)
      let solve = (Pencil.factor ctx ~shift:s0).Factor.solve in
      let current =
        ref
          (List.filter_map
             (fun col -> add basis (solve (Linalg.Mat.col m.Circuit.Mna.b col)))
             (List.init p Fun.id))
      in
      for _step = 2 to steps do
        current := List.filter_map (fun v -> add basis (apply solve c v)) !current
      done)
    points;
  project ~shift:(fst (List.hd points)) m (to_mat m.Circuit.Mna.n basis)
