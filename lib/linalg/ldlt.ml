type block =
  | B1 of { k : int; d : float }
  | B2 of { k : int; a : float; b : float; c : float }
      (* 2×2 block [[a; b]; [b; c]] at rows/cols (k, k+1) *)

type t = {
  n : int;
  lmat : Mat.t; (* unit lower triangular; unit diagonal implicit *)
  blocks : block list; (* in ascending k order *)
  perm : int array; (* position i holds original index perm.(i) *)
  (* sign-split data, per position: *)
  smat2 : (float * float * float * float) array;
      (* for a position k opening a 2×2 block: the 2×2 S factor
         (s00, s01, s10, s11); unused slots are zero *)
  s1 : float array; (* for 1×1 blocks: sqrt |d|; 0.0 where 2×2 *)
  j : float array; (* diagonal of J, ±1 *)
  block_kind : int array; (* 0: 1×1 at k; 1: first row of 2×2; 2: second row *)
}

exception Singular of int

let alpha = (1.0 +. sqrt 17.0) /. 8.0

(* Symmetric 2×2 eigendecomposition of [[a;b];[b;c]]:
   returns (l1, l2, q) with q = [[q00;q01];[q10;q11]] orthogonal,
   columns = eigenvectors for l1, l2. *)
let eig2 a b c =
  if b = 0.0 then (a, c, (1.0, 0.0, 0.0, 1.0))
  else begin
    let tr = a +. c and dif = a -. c in
    let rad = sqrt ((dif *. dif) +. (4.0 *. b *. b)) in
    let l1 = 0.5 *. (tr +. rad) and l2 = 0.5 *. (tr -. rad) in
    (* eigenvector for l1: (b, l1 - a) *)
    let vx = b and vy = l1 -. a in
    let nrm = sqrt ((vx *. vx) +. (vy *. vy)) in
    let q00 = vx /. nrm and q10 = vy /. nrm in
    (* second eigenvector orthogonal *)
    let q01 = -.q10 and q11 = q00 in
    (l1, l2, (q00, q01, q10, q11))
  end

let factor ?(tol = 1e-13) m0 =
  let open Mat in
  assert (m0.rows = m0.cols);
  let n = m0.rows in
  let w = copy m0 in
  let lmat = identity n in
  let perm = Array.init n (fun i -> i) in
  let blocks = ref [] in
  let scale_ref = max_abs m0 in
  let tiny = tol *. scale_ref in
  (* swap rows/cols r1 <-> r2 (both >= current k) in w, rows of lmat
     in columns [0, kdone), and perm *)
  let swap kdone r1 r2 =
    if r1 <> r2 then begin
      for j = 0 to n - 1 do
        let t1 = get w r1 j in
        set w r1 j (get w r2 j);
        set w r2 j t1
      done;
      for i = 0 to n - 1 do
        let t1 = get w i r1 in
        set w i r1 (get w i r2);
        set w i r2 t1
      done;
      for j = 0 to kdone - 1 do
        let t1 = get lmat r1 j in
        set lmat r1 j (get lmat r2 j);
        set lmat r2 j t1
      done;
      let t1 = perm.(r1) in
      perm.(r1) <- perm.(r2);
      perm.(r2) <- t1
    end
  in
  let k = ref 0 in
  while !k < n do
    let kk = !k in
    let absakk = Float.abs (get w kk kk) in
    (* lambda: largest below-diagonal magnitude in column kk *)
    let r = ref kk and lambda = ref 0.0 in
    for i = kk + 1 to n - 1 do
      let v = Float.abs (get w i kk) in
      if v > !lambda then begin
        lambda := v;
        r := i
      end
    done;
    if Float.max absakk !lambda <= tiny then raise (Singular kk);
    let kstep = ref 1 in
    if absakk >= alpha *. !lambda then () (* 1×1, no swap *)
    else begin
      (* sigma: largest off-diagonal magnitude in column/row !r within
         the trailing submatrix *)
      let sigma = ref 0.0 in
      for i = kk to n - 1 do
        if i <> !r then sigma := Float.max !sigma (Float.abs (get w i !r))
      done;
      if absakk *. !sigma >= alpha *. !lambda *. !lambda then ()
      else if Float.abs (get w !r !r) >= alpha *. !sigma then swap kk kk !r
      else begin
        kstep := 2;
        swap kk (kk + 1) !r
      end
    end;
    if !kstep = 1 then begin
      let d = get w kk kk in
      if Float.abs d <= tiny then raise (Singular kk);
      blocks := B1 { k = kk; d } :: !blocks;
      for i = kk + 1 to n - 1 do
        let li = get w i kk /. d in
        set lmat i kk li
      done;
      for i = kk + 1 to n - 1 do
        let ci = get w i kk in
        if ci <> 0.0 then
          for jj = kk + 1 to n - 1 do
            add_to w i jj (-.ci *. get w jj kk /. d)
          done
      done;
      incr k
    end
    else begin
      let a = get w kk kk
      and b = get w (kk + 1) kk
      and c = get w (kk + 1) (kk + 1) in
      let det = (a *. c) -. (b *. b) in
      if Float.abs det <= tiny *. tiny then raise (Singular kk);
      blocks := B2 { k = kk; a; b; c } :: !blocks;
      (* columns of L: [l1; l2] = D⁻¹ [c1; c2] *)
      let l1s = Array.make n 0.0 and l2s = Array.make n 0.0 in
      for i = kk + 2 to n - 1 do
        let c1 = get w i kk and c2 = get w i (kk + 1) in
        let l1 = ((c *. c1) -. (b *. c2)) /. det in
        let l2 = ((a *. c2) -. (b *. c1)) /. det in
        l1s.(i) <- l1;
        l2s.(i) <- l2;
        set lmat i kk l1;
        set lmat i (kk + 1) l2
      done;
      for i = kk + 2 to n - 1 do
        let c1 = get w i kk and c2 = get w i (kk + 1) in
        if c1 <> 0.0 || c2 <> 0.0 then
          for jj = kk + 2 to n - 1 do
            add_to w i jj (-.((l1s.(jj) *. c1) +. (l2s.(jj) *. c2)))
          done
      done;
      k := !k + 2
    end
  done;
  (* sign-split of D *)
  let j = Array.make n 1.0 in
  let s1 = Array.make n 0.0 in
  let smat2 = Array.make n (0.0, 0.0, 0.0, 0.0) in
  let block_kind = Array.make n 0 in
  List.iter
    (fun blk ->
      match blk with
      | B1 { k; d } ->
        s1.(k) <- sqrt (Float.abs d);
        j.(k) <- (if d >= 0.0 then 1.0 else -1.0);
        block_kind.(k) <- 0
      | B2 { k; a; b; c } ->
        let l1, l2, (q00, q01, q10, q11) = eig2 a b c in
        let r1 = sqrt (Float.abs l1) and r2 = sqrt (Float.abs l2) in
        (* S = Q · diag(r1, r2) *)
        smat2.(k) <- (q00 *. r1, q01 *. r2, q10 *. r1, q11 *. r2);
        j.(k) <- (if l1 >= 0.0 then 1.0 else -1.0);
        j.(k + 1) <- (if l2 >= 0.0 then 1.0 else -1.0);
        block_kind.(k) <- 1;
        block_kind.(k + 1) <- 2)
    !blocks;
  { n; lmat; blocks = List.rev !blocks; perm; smat2; s1; j; block_kind }

let dim t = t.n

let j_diag t = Array.copy t.j

let is_definite t = Array.for_all (fun x -> x > 0.0) t.j

let inertia t =
  Array.fold_left
    (fun (p, q) x -> if x > 0.0 then (p + 1, q) else (p, q + 1))
    (0, 0) t.j

(* forward substitution with unit lower lmat: solve L z = b in place *)
let solve_unit_lower t z =
  let open Mat in
  for i = 0 to t.n - 1 do
    for jj = 0 to i - 1 do
      z.(i) <- z.(i) -. (get t.lmat i jj *. z.(jj))
    done
  done

let solve_unit_lower_t t z =
  let open Mat in
  for i = t.n - 1 downto 0 do
    for jj = i + 1 to t.n - 1 do
      z.(i) <- z.(i) -. (get t.lmat jj i *. z.(jj))
    done
  done

(* x ← A⁻¹b with b as the workspace (overwritten) *)
let solve_into t b x =
  assert (Vec.dim b = t.n && Vec.dim x = t.n && b != x);
  let z = x in
  for i = 0 to t.n - 1 do
    z.(i) <- b.(t.perm.(i))
  done;
  solve_unit_lower t z;
  (* block-diagonal solve *)
  List.iter
    (fun blk ->
      match blk with
      | B1 { k; d } -> z.(k) <- z.(k) /. d
      | B2 { k; a; b; c } ->
        let det = (a *. c) -. (b *. b) in
        let z1 = z.(k) and z2 = z.(k + 1) in
        z.(k) <- ((c *. z1) -. (b *. z2)) /. det;
        z.(k + 1) <- ((a *. z2) -. (b *. z1)) /. det)
    t.blocks;
  solve_unit_lower_t t z;
  Array.blit z 0 b 0 t.n;
  for i = 0 to t.n - 1 do
    x.(t.perm.(i)) <- b.(i)
  done

let solve t b =
  let x = Vec.create t.n in
  solve_into t (Vec.copy b) x;
  x

(* S x, S⁻¹ x, S⁻ᵀ x as in-place transforms on a work vector *)
let apply_s t z =
  let i = ref 0 in
  while !i < t.n do
    (match t.block_kind.(!i) with
    | 0 ->
      z.(!i) <- t.s1.(!i) *. z.(!i);
      incr i
    | 1 ->
      let s00, s01, s10, s11 = t.smat2.(!i) in
      let z1 = z.(!i) and z2 = z.(!i + 1) in
      z.(!i) <- (s00 *. z1) +. (s01 *. z2);
      z.(!i + 1) <- (s10 *. z1) +. (s11 *. z2);
      i := !i + 2
    | _ -> assert false)
  done

let apply_s_inv t z =
  let i = ref 0 in
  while !i < t.n do
    (match t.block_kind.(!i) with
    | 0 ->
      z.(!i) <- z.(!i) /. t.s1.(!i);
      incr i
    | 1 ->
      let s00, s01, s10, s11 = t.smat2.(!i) in
      let det = (s00 *. s11) -. (s01 *. s10) in
      let z1 = z.(!i) and z2 = z.(!i + 1) in
      z.(!i) <- ((s11 *. z1) -. (s01 *. z2)) /. det;
      z.(!i + 1) <- ((s00 *. z2) -. (s10 *. z1)) /. det;
      i := !i + 2
    | _ -> assert false)
  done

let apply_s_inv_t t z =
  let i = ref 0 in
  while !i < t.n do
    (match t.block_kind.(!i) with
    | 0 ->
      z.(!i) <- z.(!i) /. t.s1.(!i);
      incr i
    | 1 ->
      (* S⁻ᵀ = (Sᵀ)⁻¹ with Sᵀ = [[s00;s10];[s01;s11]] *)
      let s00, s01, s10, s11 = t.smat2.(!i) in
      let det = (s00 *. s11) -. (s01 *. s10) in
      let z1 = z.(!i) and z2 = z.(!i + 1) in
      z.(!i) <- ((s11 *. z1) -. (s10 *. z2)) /. det;
      z.(!i + 1) <- ((s00 *. z2) -. (s01 *. z1)) /. det;
      i := !i + 2
    | _ -> assert false)
  done

(* M = Pᵀ L S with (P x).(i) = x.(perm.(i)) *)
let apply_m t x =
  assert (Vec.dim x = t.n);
  let open Mat in
  let z = Vec.copy x in
  apply_s t z;
  let y = Vec.create t.n in
  for i = 0 to t.n - 1 do
    y.(i) <- z.(i);
    for jj = 0 to i - 1 do
      y.(i) <- y.(i) +. (get t.lmat i jj *. z.(jj))
    done
  done;
  let out = Vec.create t.n in
  for i = 0 to t.n - 1 do
    out.(t.perm.(i)) <- y.(i)
  done;
  out

let check_pair t x y =
  if Vec.dim x <> t.n || Vec.dim y <> t.n || x == y then
    invalid_arg "Ldlt: operands must be two distinct vectors of the factor's size"

let m_inv t x y =
  check_pair t x y;
  for i = 0 to t.n - 1 do
    y.(i) <- x.(t.perm.(i))
  done;
  solve_unit_lower t y;
  apply_s_inv t y

let mt_inv t x y =
  check_pair t x y;
  apply_s_inv_t t x;
  solve_unit_lower_t t x;
  for i = 0 to t.n - 1 do
    y.(t.perm.(i)) <- x.(i)
  done

let m_dense t =
  let m = Mat.create t.n t.n in
  for jj = 0 to t.n - 1 do
    Mat.set_col m jj (apply_m t (Vec.basis t.n jj))
  done;
  m
