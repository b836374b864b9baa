type block = { vecs : Linalg.Vec.t array; coeffs : Linalg.Vec.t -> Linalg.Vec.t }

let singleton q = { vecs = [| q |]; coeffs = Fun.id }

(* One pass over v: at each entry, first v.(i) ← v.(i) + Σₖ a.(k)·qs.(k).(i)
   (member by member, as a run of axpys would), then every dot of [rs]
   takes the updated entry — as a run of dots after the axpys would,
   each summed in ascending i. [Some w] weights the dots:
   Σ (r.(i)·w.(i))·v.(i), the association of [Vec.dot3]. A pass with
   one member on each side gets its own loop, one with a single member
   on one side only is [Vec.dot3]/[Vec.dot] or [Vec.axpy] itself. *)
let pass weight qs a rs v =
  let n = Array.length v in
  let nq = Array.length qs and nr = Array.length rs in
  let check x = if Array.length x <> n then invalid_arg "Ortho.sweep: length mismatch" in
  Array.iter check qs;
  Array.iter check rs;
  Option.iter check weight;
  if nq = 1 && nr = 1 then begin
    let q = qs.(0) and r = rs.(0) and a0 = a.(0) in
    let s = ref 0.0 in
    (match weight with
    | Some w ->
      for i = 0 to n - 1 do
        let x = Array.unsafe_get v i +. (a0 *. Array.unsafe_get q i) in
        Array.unsafe_set v i x;
        s := !s +. (Array.unsafe_get r i *. Array.unsafe_get w i *. x)
      done
    | None ->
      for i = 0 to n - 1 do
        let x = Array.unsafe_get v i +. (a0 *. Array.unsafe_get q i) in
        Array.unsafe_set v i x;
        s := !s +. (Array.unsafe_get r i *. x)
      done);
    [| !s |]
  end
  else if nq = 0 && nr = 1 then
    [|
      (match weight with
      | Some w -> Linalg.Vec.dot3 rs.(0) w v
      | None -> Linalg.Vec.dot rs.(0) v);
    |]
  else if nq = 1 && nr = 0 then begin
    Linalg.Vec.axpy a.(0) qs.(0) v;
    [||]
  end
  else begin
    let acc = Array.make nr 0.0 in
    for i = 0 to n - 1 do
      let x = ref (Array.unsafe_get v i) in
      for k = 0 to nq - 1 do
        x := !x +. (Array.unsafe_get a k *. Array.unsafe_get (Array.unsafe_get qs k) i)
      done;
      let x = !x in
      Array.unsafe_set v i x;
      (* ri·1.0 is ri exactly, so the unweighted dot takes weight 1 *)
      let wi = match weight with Some w -> Array.unsafe_get w i | None -> 1.0 in
      for l = 0 to nr - 1 do
        let ri = Array.unsafe_get (Array.unsafe_get rs l) i in
        Array.unsafe_set acc l (Array.unsafe_get acc l +. (ri *. wi *. x))
      done
    done;
    acc
  end

let sweep ?weight ?(record = fun _ _ -> ()) blocks v =
  let nb = Array.length blocks in
  if nb > 0 then begin
    if Obs.tracing () then
      Obs.count "krylov.projections"
        (Array.fold_left (fun s b -> s + Array.length b.vecs) 0 blocks);
    let dots = ref (pass weight [||] [||] blocks.(0).vecs v) in
    for g = 0 to nb - 1 do
      let b = blocks.(g) in
      let c = b.coeffs !dots in
      record g c;
      let next = if g + 1 < nb then blocks.(g + 1).vecs else [||] in
      dots := pass weight b.vecs (Array.map Float.neg c) next v
    done
  end
