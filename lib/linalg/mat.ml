type t = { rows : int; cols : int; a : float array }

let create rows cols = { rows; cols; a = Array.make (rows * cols) 0.0 }

let init rows cols f =
  { rows; cols; a = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.a.((i * n) + i) <- 1.0
  done;
  m

let diag d =
  let n = Vec.dim d in
  init n n (fun i j -> if i = j then d.(i) else 0.0)

let[@inline] get m i j = m.a.((i * m.cols) + j)

let get_diag m =
  let n = min m.rows m.cols in
  Vec.init n (fun i -> get m i i)

let copy m = { m with a = Array.copy m.a }

let[@inline] set m i j x = m.a.((i * m.cols) + j) <- x

let[@inline] add_to m i j x = m.a.((i * m.cols) + j) <- m.a.((i * m.cols) + j) +. x

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then create 0 0
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iter (fun r -> assert (Array.length r = cols)) rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))
  end

let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let of_cols cols_list =
  match cols_list with
  | [] -> create 0 0
  | c0 :: _ ->
    let rows = Vec.dim c0 in
    let cols = List.length cols_list in
    let m = create rows cols in
    List.iteri
      (fun j c ->
        assert (Vec.dim c = rows);
        for i = 0 to rows - 1 do
          set m i j c.(i)
        done)
      cols_list;
    m

let col m j = Vec.init m.rows (fun i -> get m i j)

let row m i = Vec.init m.cols (fun j -> get m i j)

let set_col m j v =
  assert (Vec.dim v = m.rows);
  for i = 0 to m.rows - 1 do
    set m i j v.(i)
  done

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let zip_with f x y =
  assert (x.rows = y.rows && x.cols = y.cols);
  { x with a = Array.mapi (fun k xa -> f xa y.a.(k)) x.a }

let add x y = zip_with ( +. ) x y

let sub x y = zip_with ( -. ) x y

let scale c m = { m with a = Array.map (fun x -> c *. x) m.a }

let mul x y =
  assert (x.cols = y.rows);
  let z = create x.rows y.cols in
  for i = 0 to x.rows - 1 do
    for k = 0 to x.cols - 1 do
      let xik = get x i k in
      if xik <> 0.0 then begin
        let xrow = i * y.cols in
        let yrow = k * y.cols in
        for j = 0 to y.cols - 1 do
          z.a.(xrow + j) <- z.a.(xrow + j) +. (xik *. y.a.(yrow + j))
        done
      end
    done
  done;
  z

let mul_vec m x =
  assert (m.cols = Vec.dim x);
  Vec.init m.rows (fun i ->
      let s = ref 0.0 in
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        s := !s +. (m.a.(base + j) *. x.(j))
      done;
      !s)

let mul_trans_vec m x =
  assert (m.rows = Vec.dim x);
  let y = Vec.create m.cols in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then begin
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (m.a.(base + j) *. xi)
      done
    end
  done;
  y

let gram m = mul (transpose m) m

let congruence v a = mul (transpose v) (mul a v)

let sym_part m =
  assert (m.rows = m.cols);
  init m.rows m.cols (fun i j -> 0.5 *. (get m i j +. get m j i))

let is_symmetric ?(tol = 1e-12) m =
  m.rows = m.cols
  &&
  let scale_ref = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1.0 m.a in
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (get m i j -. get m j i) > tol *. scale_ref then ok := false
    done
  done;
  !ok

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.a)

let norm_inf m =
  let worst = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. Float.abs (get m i j)
    done;
    worst := Float.max !worst !s
  done;
  !worst

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.a

let dist_max x y =
  assert (x.rows = y.rows && x.cols = y.cols);
  let worst = ref 0.0 in
  Array.iteri (fun k xa -> worst := Float.max !worst (Float.abs (xa -. y.a.(k)))) x.a;
  !worst

let submatrix m i0 j0 h w =
  assert (i0 >= 0 && j0 >= 0 && i0 + h <= m.rows && j0 + w <= m.cols);
  init h w (fun i j -> get m (i0 + i) (j0 + j))

let random rng rows cols = init rows cols (fun _ _ -> Rng.uniform rng (-1.0) 1.0)

let random_symmetric rng n =
  let m = random rng n n in
  sym_part m

let random_spd rng n =
  let m = random rng n n in
  let g = gram m in
  add g (scale (0.1 *. float_of_int n) (identity n))

let pp ppf m =
  Format.fprintf ppf "@[<v 0>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<hov 1>[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%.6g" (get m i j)
    done;
    Format.fprintf ppf "]@]";
    if i < m.rows - 1 then Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"
