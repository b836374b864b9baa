type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  { rows; cols; re = Array.make (rows * cols) 0.0; im = Array.make (rows * cols) 0.0 }

let get m i j =
  let k = (i * m.cols) + j in
  { Complex.re = m.re.(k); im = m.im.(k) }

let set m i j z =
  let k = (i * m.cols) + j in
  m.re.(k) <- z.Complex.re;
  m.im.(k) <- z.Complex.im

let add_to m i j z =
  let k = (i * m.cols) + j in
  m.re.(k) <- m.re.(k) +. z.Complex.re;
  m.im.(k) <- m.im.(k) +. z.Complex.im

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

let of_real r =
  { rows = r.Mat.rows; cols = r.Mat.cols; re = Array.copy r.Mat.a;
    im = Array.make (Array.length r.Mat.a) 0.0 }

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

(* The dense kernels below run over the split [re]/[im] arrays with no
   [Complex.t] per entry. Each keeps the stdlib [Complex.mul] /
   [Complex.div] formulas and the boxed code's order of operations, so
   results are bitwise identical to composing [Cx] operators entry by
   entry. *)

let lincomb a ma b mb =
  assert (ma.Mat.rows = mb.Mat.rows && ma.Mat.cols = mb.Mat.cols);
  let x = ma.Mat.a and y = mb.Mat.a in
  let len = Array.length x in
  let re = Array.create_float len and im = Array.create_float len in
  let ar = a.Complex.re and ai = a.Complex.im and br = b.Complex.re and bi = b.Complex.im in
  for k = 0 to len - 1 do
    re.(k) <- (x.(k) *. ar) +. (y.(k) *. br);
    im.(k) <- (x.(k) *. ai) +. (y.(k) *. bi)
  done;
  { rows = ma.Mat.rows; cols = ma.Mat.cols; re; im }

let zip_with f x y =
  assert (x.rows = y.rows && x.cols = y.cols);
  init x.rows x.cols (fun i j -> f (get x i j) (get y i j))

let add x y = zip_with Cx.( +: ) x y

let sub x y = zip_with Cx.( -: ) x y

let scale c m = init m.rows m.cols (fun i j -> Cx.(c *: get m i j))

let mul x y =
  assert (x.cols = y.rows);
  let z = create x.rows y.cols in
  let nc = y.cols in
  for i = 0 to x.rows - 1 do
    let zrow = i * nc in
    for k = 0 to x.cols - 1 do
      let xr = x.re.((i * x.cols) + k) and xi = x.im.((i * x.cols) + k) in
      if xr <> 0.0 || xi <> 0.0 then begin
        let yrow = k * nc in
        for j = 0 to nc - 1 do
          let yr = y.re.(yrow + j) and yi = y.im.(yrow + j) in
          z.re.(zrow + j) <- z.re.(zrow + j) +. ((xr *. yr) -. (xi *. yi));
          z.im.(zrow + j) <- z.im.(zrow + j) +. ((xr *. yi) +. (xi *. yr))
        done
      end
    done
  done;
  z

let mul_vec m x =
  assert (m.cols = Array.length x);
  Array.init m.rows (fun i ->
      let s = ref Cx.zero in
      for j = 0 to m.cols - 1 do
        s := Cx.(!s +: (get m i j *: x.(j)))
      done;
      !s)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let dist_max x y =
  assert (x.rows = y.rows && x.cols = y.cols);
  let worst = ref 0.0 in
  for i = 0 to x.rows - 1 do
    for j = 0 to x.cols - 1 do
      worst := Float.max !worst (Cx.abs Cx.(get x i j -: get y i j))
    done
  done;
  !worst

let max_abs m =
  let worst = ref 0.0 in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      worst := Float.max !worst (Cx.abs (get m i j))
    done
  done;
  !worst

let hermitian_part m =
  assert (m.rows = m.cols);
  init m.rows m.cols (fun i j -> Cx.(smul 0.5 (get m i j +: conj (get m j i))))

let min_eig_hermitian m =
  assert (m.rows = m.cols);
  let n = m.rows in
  (* Hermitian H = A + iB (A symmetric, B skew); embed as the real
     symmetric [[A, -B]; [B, A]] whose spectrum doubles H's. *)
  let s =
    Mat.init (2 * n) (2 * n) (fun i j ->
        let bi = i mod n and bj = j mod n in
        let z = get m bi bj in
        match (i < n, j < n) with
        | true, true -> z.Complex.re
        | true, false -> -.z.Complex.im
        | false, true -> z.Complex.im
        | false, false -> z.Complex.re)
  in
  Eig_sym.min_eigenvalue s

type lu = { lu_mat : t; piv : int array }

exception Singular of int

let lu_factor m0 =
  assert (m0.rows = m0.cols);
  let n = m0.rows in
  let m = copy m0 in
  let re = m.re and im = m.im in
  let piv = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* first entry of largest modulus wins; an exact zero never does *)
    let p = ref k in
    let best = ref (Float.hypot re.((k * n) + k) im.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let xr = re.((i * n) + k) and xi = im.((i * n) + k) in
      if xr <> 0.0 || xi <> 0.0 then begin
        let a = Float.hypot xr xi in
        if a > !best then begin
          p := i;
          best := a
        end
      end
    done;
    if !p <> k then begin
      let rk = k * n and rp = !p * n in
      for j = 0 to n - 1 do
        let t = re.(rk + j) in
        re.(rk + j) <- re.(rp + j);
        re.(rp + j) <- t;
        let t = im.(rk + j) in
        im.(rk + j) <- im.(rp + j);
        im.(rp + j) <- t
      done;
      let t = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- t
    end;
    if !best = 0.0 then raise (Singular k);
    let pr = re.((k * n) + k) and pi = im.((k * n) + k) in
    (* Complex.div's pivot-only terms, shared by every row *)
    let wide = Float.abs pr >= Float.abs pi in
    let r = if wide then pi /. pr else pr /. pi in
    let d = if wide then pr +. (r *. pi) else pi +. (r *. pr) in
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      let xr = re.(ik) and xi = im.(ik) in
      if wide then begin
        re.(ik) <- (xr +. (r *. xi)) /. d;
        im.(ik) <- (xi -. (r *. xr)) /. d
      end
      else begin
        re.(ik) <- ((r *. xr) +. xi) /. d;
        im.(ik) <- ((r *. xi) -. xr) /. d
      end;
      let lr = re.(ik) and li = im.(ik) in
      if lr <> 0.0 || li <> 0.0 then begin
        let ri = i * n and rk = k * n in
        for j = k + 1 to n - 1 do
          let ur = re.(rk + j) and ui = im.(rk + j) in
          re.(ri + j) <- re.(ri + j) +. -.((lr *. ur) -. (li *. ui));
          im.(ri + j) <- im.(ri + j) +. -.((lr *. ui) +. (li *. ur))
        done
      end
    done
  done;
  { lu_mat = m; piv }

let lu_packed f = (f.lu_mat, f.piv)

(* Forward then back substitution in place on one right-hand side held
   as split arrays [xr]/[xi]. *)
let substitute f xr xi =
  let n = f.lu_mat.rows and lre = f.lu_mat.re and lim = f.lu_mat.im in
  for i = 0 to n - 1 do
    let sr = ref xr.(i) and si = ref xi.(i) in
    let row = i * n in
    for j = 0 to i - 1 do
      let ar = lre.(row + j) and ai = lim.(row + j) in
      let yr = xr.(j) and yi = xi.(j) in
      sr := !sr -. ((ar *. yr) -. (ai *. yi));
      si := !si -. ((ar *. yi) +. (ai *. yr))
    done;
    xr.(i) <- !sr;
    xi.(i) <- !si
  done;
  for i = n - 1 downto 0 do
    let sr = ref xr.(i) and si = ref xi.(i) in
    let row = i * n in
    for j = i + 1 to n - 1 do
      let ar = lre.(row + j) and ai = lim.(row + j) in
      let yr = xr.(j) and yi = xi.(j) in
      sr := !sr -. ((ar *. yr) -. (ai *. yi));
      si := !si -. ((ar *. yi) +. (ai *. yr))
    done;
    let pr = lre.(row + i) and pi = lim.(row + i) in
    let yr = !sr and yi = !si in
    if Float.abs pr >= Float.abs pi then begin
      let r = pi /. pr in
      let d = pr +. (r *. pi) in
      xr.(i) <- (yr +. (r *. yi)) /. d;
      xi.(i) <- (yi -. (r *. yr)) /. d
    end
    else begin
      let r = pr /. pi in
      let d = pi +. (r *. pr) in
      xr.(i) <- ((r *. yr) +. yi) /. d;
      xi.(i) <- ((r *. yi) -. yr) /. d
    end
  done

let lu_solve_vec f b =
  let n = f.lu_mat.rows in
  assert (Array.length b = n);
  let xr = Array.init n (fun i -> b.(f.piv.(i)).Complex.re) in
  let xi = Array.init n (fun i -> b.(f.piv.(i)).Complex.im) in
  substitute f xr xi;
  Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })

let lu_solve_mat f b =
  let n = f.lu_mat.rows and nc = b.cols in
  assert (b.rows = n);
  let x = create n nc in
  let cr = Array.create_float n and ci = Array.create_float n in
  for c = 0 to nc - 1 do
    for i = 0 to n - 1 do
      cr.(i) <- b.re.((f.piv.(i) * nc) + c);
      ci.(i) <- b.im.((f.piv.(i) * nc) + c)
    done;
    substitute f cr ci;
    for i = 0 to n - 1 do
      x.re.((i * nc) + c) <- cr.(i);
      x.im.((i * nc) + c) <- ci.(i)
    done
  done;
  x

let solve a b = lu_solve_mat (lu_factor a) b

let pp ppf m =
  Format.fprintf ppf "@[<v 0>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<hov 1>[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ";@ ";
      Cx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "]@]";
    if i < m.rows - 1 then Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"
