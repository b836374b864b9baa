type t = Realisation.t

(* the congruence projection (VᵀGV, VᵀCV, VᵀB) lives in the physical
   pencil variable — the shift only chose the Krylov space *)
let project ~shift (m : Circuit.Mna.t) v =
  Realisation.congruence ~shift ~variable:m.Circuit.Mna.variable ~gain:m.Circuit.Mna.gain
    (Linalg.Mat.congruence v (Sparse.Csr.to_dense m.Circuit.Mna.g))
    (Linalg.Mat.congruence v (Sparse.Csr.to_dense m.Circuit.Mna.c))
    (Linalg.Mat.mul (Linalg.Mat.transpose v) m.Circuit.Mna.b)

let reduce ?ctx ?shift ?band ~order (m : Circuit.Mna.t) =
  let c = m.Circuit.Mna.c in
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  (* shift resolution and factorisation via the shared policy: PRIMA
     expands about the exact same point SyMPVL/MPVL would pick *)
  Pencil.with_auto_shift ?shift ?band ctx @@ fun s0 fac ->
  let solve_k v = fac.Factor.solve v in
  let nn = m.Circuit.Mna.n in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  (* orthonormal basis accumulated column by column with two-pass MGS *)
  let basis = ref [] in
  let nb = ref 0 in
  let push v =
    if !nb < order then begin
      let w = Linalg.Vec.copy v in
      let n0 = Linalg.Vec.norm2 w in
      for _pass = 1 to 2 do
        List.iter
          (fun q ->
            let h = Linalg.Vec.dot q w in
            Linalg.Vec.axpy (-.h) q w)
          !basis
      done;
      let n1 = Linalg.Vec.norm2 w in
      if n1 > 1e-10 *. Float.max n0 1e-300 then begin
        Linalg.Vec.scale_ip (1.0 /. n1) w;
        basis := !basis @ [ w ];
        incr nb;
        true
      end
      else false
    end
    else false
  in
  (* start block K⁻¹B *)
  let current = ref [] in
  for k = 0 to p - 1 do
    let v = solve_k (Linalg.Mat.col m.Circuit.Mna.b k) in
    if push v then current := !current @ [ List.nth !basis (!nb - 1) ]
  done;
  (* Arnoldi sweeps: apply K⁻¹C to the newest accepted block *)
  let continue_ = ref (!current <> []) in
  while !nb < order && !continue_ do
    let next = ref [] in
    List.iter
      (fun v ->
        if !nb < order then begin
          let w = solve_k (Sparse.Csr.mul_vec c v) in
          if push w then next := !next @ [ List.nth !basis (!nb - 1) ]
        end)
      !current;
    current := !next;
    if !current = [] then continue_ := false
  done;
  let v = Linalg.Mat.create nn !nb in
  List.iteri (fun k q -> Linalg.Mat.set_col v k q) !basis;
  project ~shift:s0 m v

let shift_of_hz (m : Circuit.Mna.t) f =
  let w = 2.0 *. Float.pi *. f in
  match m.Circuit.Mna.variable with
  | Circuit.Mna.S -> w
  | Circuit.Mna.S_squared -> w *. w

let reduce_multipoint ?ctx ~points (m : Circuit.Mna.t) =
  assert (points <> []);
  let c = m.Circuit.Mna.c in
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  let nn = m.Circuit.Mna.n in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  let basis = ref [] in
  let nb = ref 0 in
  let push v =
    let w = Linalg.Vec.copy v in
    let n0 = Linalg.Vec.norm2 w in
    for _pass = 1 to 2 do
      List.iter
        (fun q ->
          let h = Linalg.Vec.dot q w in
          Linalg.Vec.axpy (-.h) q w)
        !basis
    done;
    let n1 = Linalg.Vec.norm2 w in
    if n1 > 1e-10 *. Float.max n0 1e-300 then begin
      Linalg.Vec.scale_ip (1.0 /. n1) w;
      basis := !basis @ [ w ];
      incr nb;
      true
    end
    else false
  in
  List.iter
    (fun (s0, steps) ->
      (* repeated expansion points are cache hits on the context *)
      let fac = Pencil.factor ctx ~shift:s0 in
      let current = ref [] in
      for col = 0 to p - 1 do
        let v = fac.Factor.solve (Linalg.Mat.col m.Circuit.Mna.b col) in
        if push v then current := !current @ [ List.nth !basis (!nb - 1) ]
      done;
      for _step = 2 to steps do
        let next = ref [] in
        List.iter
          (fun v ->
            let w = fac.Factor.solve (Sparse.Csr.mul_vec c v) in
            if push w then next := !next @ [ List.nth !basis (!nb - 1) ])
          !current;
        current := !next
      done)
    points;
  let v = Linalg.Mat.create nn !nb in
  List.iteri (fun k q -> Linalg.Mat.set_col v k q) !basis;
  project ~shift:(fst (List.hd points)) m v
