type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let nnz t = t.row_ptr.(t.rows)

let of_triplet tr =
  let rows = Triplet.rows tr and cols = Triplet.cols tr in
  let n = Triplet.nnz tr in
  (* bucket by row *)
  let count = Array.make (rows + 1) 0 in
  Triplet.iter tr (fun i _ _ -> count.(i + 1) <- count.(i + 1) + 1);
  for i = 0 to rows - 1 do
    count.(i + 1) <- count.(i + 1) + count.(i)
  done;
  let cj = Array.make n 0 and cx = Array.make n 0.0 in
  let fill = Array.copy count in
  Triplet.iter tr (fun i j x ->
      let k = fill.(i) in
      cj.(k) <- j;
      cx.(k) <- x;
      fill.(i) <- k + 1);
  (* sort each row by column and merge duplicates *)
  let row_ptr = Array.make (rows + 1) 0 in
  let out_j = Array.make n 0 and out_x = Array.make n 0.0 in
  let pos = ref 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i) <- !pos;
    let lo = count.(i) and hi = count.(i + 1) in
    let len = hi - lo in
    if len > 0 then begin
      let idx = Array.init len (fun k -> lo + k) in
      Array.sort (fun a b -> Int.compare cj.(a) cj.(b)) idx;
      let k = ref 0 in
      while !k < len do
        let j = cj.(idx.(!k)) in
        let s = ref 0.0 in
        while !k < len && cj.(idx.(!k)) = j do
          s := !s +. cx.(idx.(!k));
          incr k
        done;
        out_j.(!pos) <- j;
        out_x.(!pos) <- !s;
        incr pos
      done
    end
  done;
  row_ptr.(rows) <- !pos;
  {
    rows;
    cols;
    row_ptr;
    col_idx = Array.sub out_j 0 !pos;
    values = Array.sub out_x 0 !pos;
  }

let of_dense m = of_triplet (Triplet.of_dense m)

let to_dense t =
  let m = Linalg.Mat.create t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Linalg.Mat.add_to m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let get t i j =
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      result := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let mul_vec_into t x y =
  assert (Linalg.Vec.dim x = t.cols && Linalg.Vec.dim y = t.rows);
  for i = 0 to t.rows - 1 do
    let s = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      s := !s +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    y.(i) <- !s
  done

let mul_vec t x =
  let y = Linalg.Vec.create t.rows in
  mul_vec_into t x y;
  y

let mul_dense t (x : Linalg.Mat.t) =
  if x.Linalg.Mat.rows <> t.cols then invalid_arg "Csr.mul_dense: dimension mismatch";
  let nc = x.Linalg.Mat.cols in
  let z = Linalg.Mat.create t.rows nc in
  let za = z.Linalg.Mat.a and xa = x.Linalg.Mat.a in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let a = t.values.(k) in
      if a <> 0.0 then begin
        let zrow = i * nc and xrow = t.col_idx.(k) * nc in
        for j = 0 to nc - 1 do
          za.(zrow + j) <- za.(zrow + j) +. (a *. xa.(xrow + j))
        done
      end
    done
  done;
  z

let transpose t =
  let tr = Triplet.create t.cols t.rows in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Triplet.add tr t.col_idx.(k) i t.values.(k)
    done
  done;
  of_triplet tr

let add ?(alpha = 1.0) ?(beta = 1.0) a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  let tr = Triplet.create a.rows a.cols in
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      Triplet.add tr i a.col_idx.(k) (alpha *. a.values.(k))
    done;
    for k = b.row_ptr.(i) to b.row_ptr.(i + 1) - 1 do
      Triplet.add tr i b.col_idx.(k) (beta *. b.values.(k))
    done
  done;
  of_triplet tr

let scale alpha t = { t with values = Array.map (fun x -> alpha *. x) t.values }

let identity n =
  {
    rows = n;
    cols = n;
    row_ptr = Array.init (n + 1) (fun i -> i);
    col_idx = Array.init n (fun i -> i);
    values = Array.make n 1.0;
  }

let iter_row t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let is_symmetric ?(tol = 1e-12) t =
  t.rows = t.cols
  &&
  let scale_ref =
    Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1.0 t.values
  in
  let ok = ref true in
  for i = 0 to t.rows - 1 do
    iter_row t i (fun j x ->
        if Float.abs (x -. get t j i) > tol *. scale_ref then ok := false)
  done;
  !ok

let permute_sym t perm =
  assert (t.rows = t.cols && Array.length perm = t.rows);
  let inv = Array.make t.rows 0 in
  Array.iteri (fun new_i old_i -> inv.(old_i) <- new_i) perm;
  let tr = Triplet.create t.rows t.cols in
  for i = 0 to t.rows - 1 do
    iter_row t i (fun j x -> Triplet.add tr inv.(i) inv.(j) x)
  done;
  of_triplet tr

let bandwidth t =
  let b = ref 0 in
  for i = 0 to t.rows - 1 do
    iter_row t i (fun j _ -> b := max !b (abs (i - j)))
  done;
  !b

let profile t =
  let p = ref 0 in
  for i = 0 to t.rows - 1 do
    let first = ref i in
    iter_row t i (fun j _ -> if j < !first then first := j);
    p := !p + (i - !first)
  done;
  !p
