type t = {
  shift : float;
  gain : Circuit.Mna.gain;
  poles : Complex.t array;
  residues : Complex.t array;
  order : int;
  hankel_rcond : float;
}

exception Breakdown of string

let build ?band ~order ~port (m : Circuit.Mna.t) =
  if m.Circuit.Mna.variable <> Circuit.Mna.S then
    invalid_arg "Awe.build: only pencils in the s variable are supported";
  let q = order in
  assert (q >= 1);
  (* 2q moments of an N-state pencil carry at most 2N independent
     ones: far beyond that the Hankel system is singular by
     construction (and q×q storage would only exhaust memory) *)
  if q > 2 * m.Circuit.Mna.n then
    raise
      (Breakdown
         (Printf.sprintf "order %d exceeds twice the pencil size N = %d" q
            m.Circuit.Mna.n));
  (* the engines' shift policy (with its singular-G retry); the
     factorisation it computes stays in the context's cache, where the
     moment recurrence finds it *)
  let ctx = Sympvl.Pencil.create m in
  Sympvl.Pencil.with_auto_shift ?band ctx @@ fun shift _ ->
  (* scalar moments c_0 .. c_{2q-1} of the chosen port *)
  let b = Linalg.Mat.create m.Circuit.Mna.n 1 in
  Linalg.Mat.set_col b 0 (Linalg.Mat.col m.Circuit.Mna.b port);
  let scalar_mna = { m with Circuit.Mna.b; port_names = [| "awe" |] } in
  (* G and C are the full pencil's, only B differs, so the moments
     come from the context factored above *)
  let mats = Sympvl.Moments.exact ~ctx ~shift scalar_mna (2 * q) in
  let c_raw = Array.map (fun mk -> Linalg.Mat.get mk 0 0) mats in
  (* moment scaling (standard AWE practice): work in σ′ = ασ with
     α ≈ the dominant time constant so the scaled moments are O(c₀);
     without this the Hankel system under/overflows immediately *)
  let alpha =
    if Float.abs c_raw.(0) > 0.0 && Float.abs c_raw.(1) > 0.0 then
      Float.abs (c_raw.(1) /. c_raw.(0))
    else 1.0
  in
  let c = Array.mapi (fun k ck -> ck /. (alpha ** float_of_int k)) c_raw in
  (* Padé denominator b(σ) = 1 + b₁σ + … + b_qσ^q from the Hankel
     system Σ_{j=1..q} b_j c_{k−j} = −c_k, k = q … 2q−1 *)
  let h = Linalg.Mat.init q q (fun r j -> c.(q + r - (j + 1))) in
  let rhs = Linalg.Vec.init q (fun r -> -.c.(q + r)) in
  let lu =
    match Linalg.Lu.factor h with
    | lu -> lu
    | exception Linalg.Lu.Singular _ -> raise (Breakdown "singular Hankel system")
  in
  let hankel_rcond = Linalg.Lu.rcond_estimate lu in
  let bs = Linalg.Lu.solve_vec lu rhs in
  let denom = Array.init (q + 1) (fun k -> if k = 0 then 1.0 else bs.(k - 1)) in
  (* numerator a_k = Σ_{j=0..k} b_j c_{k−j}, k = 0 … q−1 *)
  let numer =
    Array.init q (fun k ->
        let s = ref 0.0 in
        for j = 0 to k do
          s := !s +. (denom.(j) *. c.(k - j))
        done;
        !s)
  in
  let poles_scaled = Poly.roots denom in
  if Array.exists (fun p -> not (Linalg.Cx.is_finite p)) poles_scaled then
    raise (Breakdown "pole computation diverged");
  (* residues of a(σ′)/b(σ′) at each simple pole: a(p)/b'(p); then
     undo the scaling: σ′ = ασ means pole/α and residue/α *)
  let db = Poly.derivative denom in
  let residues_scaled =
    Array.map
      (fun p ->
        let d = Poly.eval_cx db p in
        if Linalg.Cx.abs d = 0.0 then raise (Breakdown "defective pole");
        Linalg.Cx.(Poly.eval_cx numer p /: d))
      poles_scaled
  in
  let poles = Array.map (fun p -> Linalg.Cx.smul (1.0 /. alpha) p) poles_scaled in
  let residues =
    Array.map (fun r -> Linalg.Cx.smul (1.0 /. alpha) r) residues_scaled
  in
  { shift; gain = m.Circuit.Mna.gain; poles; residues; order = q; hankel_rcond }

let eval a s =
  let sigma = if a.shift = 0.0 then s else Linalg.Cx.(s -: re a.shift) in
  let acc = ref Linalg.Cx.zero in
  Array.iteri
    (fun k p -> acc := Linalg.Cx.(!acc +: (a.residues.(k) /: (sigma -: p))))
    a.poles;
  match a.gain with Circuit.Mna.Unit -> !acc | Circuit.Mna.Times_s -> Linalg.Cx.(s *: !acc)

let poles a = Array.map (fun p -> Linalg.Cx.(p +: re a.shift)) a.poles
