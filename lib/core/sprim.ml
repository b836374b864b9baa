type t = {
  gn : Linalg.Mat.t;
  cn : Linalg.Mat.t;
  a : Linalg.Mat.t;
  lmat : Linalg.Mat.t;
  bn : Linalg.Mat.t;
  n1 : int;
  n2 : int;
  krylov_cols : int;
  real : Realisation.t;
}

(* Pad a node-block (resp. current-block) vector to full pencil length
   so the structured blocks of G/C can be read off one sparse mat-vec:
   for the general RLC form G = [[Gn, Aᵀ]; [A, 0]], C = [[Cn, 0];
   [0, −ℒ]], applying G to [v; 0] yields [Gn·v; A·v] and applying C to
   [0; w] yields [0; −ℒ·w] — no dense n×n materialisation. *)
let pad_top n v1 =
  let v = Linalg.Vec.create n in
  Array.blit v1 0 v 0 (Array.length v1);
  v

let pad_bottom n nn v2 =
  let v = Linalg.Vec.create n in
  Array.blit v2 0 v nn (Array.length v2);
  v

let reduce ?ctx ?shift ?band ~order (m : Circuit.Mna.t) =
  let g = m.Circuit.Mna.g and c = m.Circuit.Mna.c in
  let n = m.Circuit.Mna.n in
  let nn = m.Circuit.Mna.n_nodes in
  let ni = n - nn in
  if m.Circuit.Mna.variable <> Circuit.Mna.S || m.Circuit.Mna.gain <> Circuit.Mna.Unit
  then
    invalid_arg
      "Sprim.reduce: needs the general RLC form (variable s, unit gain)";
  if ni = 0 then
    invalid_arg "Sprim.reduce: no inductor-current block to preserve";
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  Pencil.with_auto_shift ?shift ?band ctx @@ fun s0 fac ->
  let solve_k v = fac.Factor.solve v in
  let p = m.Circuit.Mna.b.Linalg.Mat.cols in
  (* Phase 1 — plain block-Arnoldi basis on the linearised pencil,
     exactly as PRIMA would build it (same expansion point, same MGS),
     capped at [order] columns. *)
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
  let current = ref [] in
  for k = 0 to p - 1 do
    let v = solve_k (Linalg.Mat.col m.Circuit.Mna.b k) in
    if push v then current := !current @ [ List.nth !basis (!nb - 1) ]
  done;
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
  let krylov_cols = !nb in
  let v = Linalg.Mat.create n krylov_cols in
  List.iteri (fun k q -> Linalg.Mat.set_col v k q) !basis;
  (* Phase 2 — SPRIM split-and-re-block: partition the Krylov basis
     rows at the node/current boundary and orthonormalise each part.
     span(blkdiag(V₁, V₂)) ⊇ span(V), so the projection matches at
     least as many moments as PRIMA's, while the projector now
     commutes with the 2×2 block structure of (G, C). *)
  let v1, rank1 = Linalg.Qr.orthonormalize (Linalg.Mat.submatrix v 0 0 nn krylov_cols) in
  let v2, rank2 =
    Linalg.Qr.orthonormalize (Linalg.Mat.submatrix v nn 0 ni krylov_cols)
  in
  let n1 = rank1 and n2 = rank2 in
  (* Structured congruence blocks, each via sparse mat-vecs on padded
     columns. The exact values are symmetric (congruences of Gn, Cn,
     ℒ); [sym_part] removes only the last-bit rounding asymmetry so
     structure preservation holds exactly, not just to 1e-16. *)
  let cols1 = Array.init n1 (fun i -> Linalg.Mat.col v1 i) in
  let cols2 = Array.init n2 (fun i -> Linalg.Mat.col v2 i) in
  let dot_range q w off len =
    let s = ref 0.0 in
    for r = 0 to len - 1 do
      s := !s +. (q.(r) *. w.(off + r))
    done;
    !s
  in
  let gn = Linalg.Mat.create n1 n1 in
  let a = Linalg.Mat.create n2 n1 in
  let cn = Linalg.Mat.create n1 n1 in
  for j = 0 to n1 - 1 do
    let vj = pad_top n cols1.(j) in
    let gw = Sparse.Csr.mul_vec g vj in
    let cw = Sparse.Csr.mul_vec c vj in
    for i = 0 to n1 - 1 do
      Linalg.Mat.set gn i j (dot_range cols1.(i) gw 0 nn);
      Linalg.Mat.set cn i j (dot_range cols1.(i) cw 0 nn)
    done;
    for i = 0 to n2 - 1 do
      Linalg.Mat.set a i j (dot_range cols2.(i) gw nn ni)
    done
  done;
  let lmat = Linalg.Mat.create n2 n2 in
  for j = 0 to n2 - 1 do
    let wj = pad_bottom n nn cols2.(j) in
    let cw = Sparse.Csr.mul_vec c wj in
    for i = 0 to n2 - 1 do
      (* C's current block is −ℒ; store ℒ̂ itself *)
      Linalg.Mat.set lmat i j (-.(dot_range cols2.(i) cw nn ni))
    done
  done;
  let gn = Linalg.Mat.sym_part gn in
  let cn = Linalg.Mat.sym_part cn in
  let lmat = Linalg.Mat.sym_part lmat in
  let bn =
    Linalg.Mat.mul (Linalg.Mat.transpose v1)
      (Linalg.Mat.submatrix m.Circuit.Mna.b 0 0 nn p)
  in
  (* Re-blocked reduced pencil: the same first-order shape as the full
     model, so every downstream consumer (eval, certify, synth) sees a
     genuine small RLC descriptor. *)
  let nr = n1 + n2 in
  let ghat = Linalg.Mat.create nr nr in
  let chat = Linalg.Mat.create nr nr in
  for i = 0 to n1 - 1 do
    for j = 0 to n1 - 1 do
      Linalg.Mat.set ghat i j (Linalg.Mat.get gn i j);
      Linalg.Mat.set chat i j (Linalg.Mat.get cn i j)
    done
  done;
  for i = 0 to n2 - 1 do
    for j = 0 to n1 - 1 do
      Linalg.Mat.set ghat (n1 + i) j (Linalg.Mat.get a i j);
      Linalg.Mat.set ghat j (n1 + i) (Linalg.Mat.get a i j)
    done;
    for j = 0 to n2 - 1 do
      Linalg.Mat.set chat (n1 + i) (n1 + j) (-.Linalg.Mat.get lmat i j)
    done
  done;
  let bhat = Linalg.Mat.create nr p in
  for i = 0 to n1 - 1 do
    for j = 0 to p - 1 do
      Linalg.Mat.set bhat i j (Linalg.Mat.get bn i j)
    done
  done;
  if Obs.tracing () then begin
    Obs.gauge "sprim.krylov_cols" (float_of_int krylov_cols);
    Obs.gauge "sprim.n1" (float_of_int n1);
    Obs.gauge "sprim.n2" (float_of_int n2);
    (* columns the split basis carries beyond the PRIMA basis it was
       cut from — the price of re-blocking (order nr vs krylov_cols) *)
    Obs.gauge "sprim.split_overhead" (float_of_int (n1 + n2 - krylov_cols))
  end;
  {
    gn;
    cn;
    a;
    lmat;
    bn;
    n1;
    n2;
    krylov_cols;
    real =
      Realisation.congruence ~shift:s0 ~variable:m.Circuit.Mna.variable
        ~gain:m.Circuit.Mna.gain ghat chat bhat;
  }

let structure_error t =
  let rel m =
    let s = Float.max (Linalg.Mat.max_abs m) 1e-300 in
    let d = Linalg.Mat.dist_max m (Linalg.Mat.transpose m) in
    d /. s
  in
  Float.max (rel t.gn) (Float.max (rel t.cn) (rel t.lmat))
