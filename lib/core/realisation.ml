module Mat = Linalg.Mat
module Cmat = Linalg.Cmat
module Cx = Linalg.Cx
module H = Linalg.Hamiltonian

type modal = { lambda : float array; w : Mat.t }

type band = { k0 : Mat.t; k1 : Mat.t; kb : Mat.t; kc : Mat.t; lower : int }

type reduced = { hb : band; qd : Mat.t; dz : Mat.t }

type hess = { near : reduced; far : reduced; cross : float }

type form =
  | Foster of Complex.t array * Complex.t array
  | Modal of modal
  | Band of band
  | Hess of hess

type t = {
  a0 : Mat.t;
  a1 : Mat.t;
  b : Mat.t;
  c : Mat.t;
  origin : float;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
  sym : (Mat.t * Mat.t * Mat.t) option;
  definite : bool;
  form : form;
}

let order r = match r.form with Foster (poles, _) -> Array.length poles | _ -> r.a0.Mat.rows

let ports r = r.c.Mat.rows

let near_symmetric m = Mat.is_symmetric ~tol:1e-8 m

let fold ~origin k a1 = if origin = 0.0 then k else Mat.sub k (Mat.scale origin a1)

(* L⁻¹b for all columns at once: row-wise forward substitution that
   skips the zeros of L, so a diagonal k0 (SyMPVL's Δ) costs O(n·m) *)
let lower_solve (l : Mat.t) (b : Mat.t) =
  let n = b.Mat.rows and m = b.Mat.cols in
  let x = Mat.copy b in
  for i = 0 to n - 1 do
    let row = i * m in
    for k = 0 to i - 1 do
      let lik = l.Mat.a.((i * n) + k) in
      if lik <> 0.0 then
        for j = 0 to m - 1 do
          x.Mat.a.(row + j) <- x.Mat.a.(row + j) -. (lik *. x.Mat.a.((k * m) + j))
        done
    done;
    let d = l.Mat.a.((i * n) + i) in
    for j = 0 to m - 1 do
      x.Mat.a.(row + j) <- x.Mat.a.(row + j) /. d
    done
  done;
  x

(* wᵀ(k0 + σk1)⁻¹w = (L⁻¹w)ᵀ(I + σM)⁻¹(L⁻¹w) with k0 = LLᵀ and
   M = L⁻¹k1L⁻ᵀ = QΛQᵀ, so W = QᵀL⁻¹w. M is formed as (L⁻¹(L⁻¹k1)ᵀ)ᵀ:
   at L = I that is k1 itself, bit for bit *)
let modal_form ~k0 ~k1 ~w =
  match Linalg.Chol.factor k0 with
  | exception Linalg.Chol.Not_positive_definite _ -> None
  | ch ->
    let l = Linalg.Chol.l ch in
    let m = Mat.transpose (lower_solve l (Mat.transpose (lower_solve l k1))) in
    let { Linalg.Eig_sym.values; vectors } = Linalg.Eig_sym.decompose m in
    let w = Mat.mul (Mat.transpose vectors) (lower_solve l w) in
    if San.fp () then begin
      San.Fp.check_array ~name:"realisation.modal.lambda" values;
      San.Fp.check_array ~name:"realisation.modal.w" w.Mat.a
    end;
    Some { lambda = values; w }

(* ------------------------------------------------------------------ *)
(* Hessenberg–triangular form (Laub's frequency-response method)       *)

(* Symmetric power-of-two scaling d with d·(|a0| + w·|a1|)·d close to
   unit row and column maxima (Ruiz sweeps, w = ‖a0‖/‖a1‖ so both
   coefficients count): a pencil whose states live on scales decades
   apart would otherwise lose its small entries to the orthogonal
   reduction. Powers of two make the scaling itself exact *)
let balance a0 a1 =
  let n = a0.Mat.rows in
  let n0 = Mat.max_abs a0 and n1 = Mat.max_abs a1 in
  let w = if n0 > 0.0 && n1 > 0.0 then n0 /. n1 else 1.0 in
  (* max(m_ij, m_ji) of m = |a0| + w·|a1|, the pattern both sides scale *)
  let m = Array.create_float (n * n) in
  for k = 0 to (n * n) - 1 do
    m.(k) <- Float.abs a0.Mat.a.(k) +. (w *. Float.abs a1.Mat.a.(k))
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = Float.max m.((i * n) + j) m.((j * n) + i) in
      m.((i * n) + j) <- x;
      m.((j * n) + i) <- x
    done
  done;
  let d = Array.make n 1.0 and r = Array.make n 0.0 in
  let sweep () =
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := Float.max !acc (d.(j) *. m.((i * n) + j))
      done;
      r.(i) <- d.(i) *. !acc
    done;
    Array.iteri (fun i ri -> if ri > 0.0 then d.(i) <- d.(i) /. Float.sqrt ri) r;
    Array.for_all (fun ri -> ri = 0.0 || (ri > 0.5 && ri < 2.0)) r
  in
  let k = ref 0 in
  while !k < 16 && not (sweep ()) do
    incr k
  done;
  (* nearest power of two, as an exponent *)
  Array.map
    (fun di ->
      let fr, e = Float.frexp di in
      if fr < Float.sqrt 0.5 then e - 1 else e)
    d

(* Qᵀ·a0·Z = H upper Hessenberg and Qᵀ·a1·Z = T upper triangular
   (Golub & Van Loan, Algorithm 7.7.1) of the pencil balanced by
   D = diag(2^e): a Householder QR of a1, then Givens rotations that
   zero a0 below its subdiagonal, each row rotation followed by the
   column rotation that restores T. b and c ride along as Qᵀb and cZ,
   and D itself as Qᵀ·D and D·Z, the maps between the form's
   coordinates and the pencil's *)
let reduce ~e ~a0 ~a1 ~b ~c =
  let n = a0.Mat.rows and p = b.Mat.cols and q = c.Mat.rows in
  (* x with row i scaled by 2^(row i) and column j by 2^(col j) *)
  let scaled ~row ~col (x : Mat.t) =
    let y = Mat.copy x in
    for i = 0 to x.Mat.rows - 1 do
      for j = 0 to x.Mat.cols - 1 do
        let k = (i * x.Mat.cols) + j in
        y.Mat.a.(k) <- Float.ldexp y.Mat.a.(k) (row i + col j)
      done
    done;
    y
  in
  let ex i = e.(i) and none _ = 0 in
  let k0 = scaled ~row:ex ~col:ex a0 and k1 = scaled ~row:ex ~col:ex a1 in
  let kb = scaled ~row:ex ~col:none b and kc = scaled ~row:none ~col:ex c in
  let qd = Mat.init n n (fun i j -> if i = j then Float.ldexp 1.0 e.(i) else 0.0) in
  (* (D·Z)ᵀ: a column rotation of D·Z is a row rotation of its transpose *)
  let zt = Mat.copy qd in
  let ha = k0.Mat.a and ta = k1.Mat.a and ba = kb.Mat.a and ca = kc.Mat.a in
  let qa = qd.Mat.a and za = zt.Mat.a in
  (* Householder: reflect rows k.. of (H, T, b̃) by I − τvvᵀ, v₀ = 1 *)
  let v = Array.make n 0.0 and w = Array.make (max n p) 0.0 in
  for k = 0 to n - 2 do
    let below = ref 0.0 in
    for i = k + 1 to n - 1 do
      below := Float.hypot !below ta.((i * n) + k)
    done;
    if !below > 0.0 then begin
      let alpha = ta.((k * n) + k) in
      let beta = -.Float.copy_sign (Float.hypot alpha !below) alpha in
      let tau = (beta -. alpha) /. beta and scale = 1.0 /. (alpha -. beta) in
      v.(k) <- 1.0;
      for i = k + 1 to n - 1 do
        v.(i) <- ta.((i * n) + k) *. scale
      done;
      let reflect a cols j0 =
        Array.fill w j0 (cols - j0) 0.0;
        for i = k to n - 1 do
          let vi = v.(i) and row = i * cols in
          for j = j0 to cols - 1 do
            w.(j) <- w.(j) +. (vi *. a.(row + j))
          done
        done;
        for i = k to n - 1 do
          let f = tau *. v.(i) and row = i * cols in
          for j = j0 to cols - 1 do
            a.(row + j) <- a.(row + j) -. (f *. w.(j))
          done
        done
      in
      reflect ta n (k + 1);
      reflect ha n 0;
      reflect ba p 0;
      reflect qa n 0;
      ta.((k * n) + k) <- beta;
      for i = k + 1 to n - 1 do
        ta.((i * n) + k) <- 0.0
      done
    end
  done;
  let rotate_rows a cols i j0 cs sn =
    for j = j0 to cols - 1 do
      let x = a.(((i - 1) * cols) + j) and y = a.((i * cols) + j) in
      a.(((i - 1) * cols) + j) <- (cs *. x) +. (sn *. y);
      a.((i * cols) + j) <- (cs *. y) -. (sn *. x)
    done
  in
  let rotate_cols a cols rows i cs sn =
    for r = 0 to rows - 1 do
      let x = a.((r * cols) + i - 1) and y = a.((r * cols) + i) in
      a.((r * cols) + i - 1) <- (cs *. x) -. (sn *. y);
      a.((r * cols) + i) <- (sn *. x) +. (cs *. y)
    done
  in
  for j = 0 to n - 3 do
    for i = n - 1 downto j + 2 do
      let y = ha.((i * n) + j) in
      if y <> 0.0 then begin
        let x = ha.(((i - 1) * n) + j) in
        let r = Float.hypot x y in
        let cs = x /. r and sn = y /. r in
        rotate_rows ha n i j cs sn;
        ha.((i * n) + j) <- 0.0;
        rotate_rows ta n i (i - 1) cs sn;
        rotate_rows ba p i 0 cs sn;
        rotate_rows qa n i 0 cs sn;
        (* the row rotation filled T(i, i−1): rotate columns i−1, i back *)
        let x = ta.((i * n) + i) and y = ta.((i * n) + i - 1) in
        if y <> 0.0 then begin
          let r = Float.hypot x y in
          let cs = x /. r and sn = y /. r in
          rotate_cols ta n (i + 1) i cs sn;
          ta.((i * n) + i - 1) <- 0.0;
          rotate_cols ha n n i cs sn;
          rotate_cols ca n q i cs sn;
          rotate_rows za n i 0 cs (-.sn)
        end
      end
    done
  done;
  if San.fp () then begin
    San.Fp.check_array ~name:"realisation.hess.h" ha;
    San.Fp.check_array ~name:"realisation.hess.t" ta;
    San.Fp.check_array ~name:"realisation.hess.b" ba;
    San.Fp.check_array ~name:"realisation.hess.c" ca;
    San.Fp.check_array ~name:"realisation.hess.qd" qa;
    San.Fp.check_array ~name:"realisation.hess.dz" za
  end;
  { hb = { k0; k1; kb; kc; lower = 1 }; qd; dz = Mat.transpose zt }

(* The coefficient that is triangularised comes through the reduction
   column by column; the other one through every rotation. So below
   |σ| = ‖a0‖/‖a1‖, where a0 dominates the pencil, the form with a0
   triangular is used, and above it the one with a1 triangular. With
   a1 triangular, a DC point of a SPRIM model whose [[G, Aᵀ], [A, 0]]
   is nearly singular comes out 1e-3…1e-2 off, and the refinement
   cannot recover that *)
let hessenberg_form ~a0 ~a1 ~b ~c =
  let e = balance a0 a1 in
  let n0 = Mat.max_abs a0 and n1 = Mat.max_abs a1 in
  let near =
    let r = reduce ~e ~a0:a1 ~a1:a0 ~b ~c in
    { r with hb = { r.hb with k0 = r.hb.k1; k1 = r.hb.k0 } }
  in
  {
    near;
    far = reduce ~e ~a0 ~a1 ~b ~c;
    cross = (if n1 > 0.0 then n0 /. n1 else Float.infinity);
  }

(* rows below the diagonal that hold a nonzero, at most *)
let lower_bandwidth (m : Mat.t) =
  let n = m.Mat.rows and w = ref 0 in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 - !w do
      if m.Mat.a.((i * n) + j) <> 0.0 then w := max !w (i - j)
    done
  done;
  !w

let general_form ~a0 ~a1 ~b ~c =
  let lower = max (lower_bandwidth a0) (lower_bandwidth a1) in
  if lower <= b.Mat.cols then Band { k0 = a0; k1 = a1; kb = b; kc = c; lower }
  else Hess (hessenberg_form ~a0 ~a1 ~b ~c)

let congruence ?(definite = false) ~shift ~variable ~gain g c b =
  let ct = Mat.transpose b in
  {
    a0 = g;
    a1 = c;
    b;
    c = ct;
    origin = 0.0;
    shift;
    variable;
    gain;
    sym = (if definite || (near_symmetric g && near_symmetric c) then Some (g, c, b) else None);
    definite;
    form =
      (match if definite then modal_form ~k0:g ~k1:c ~w:b else None with
      | Some md -> Modal md
      | None -> general_form ~a0:g ~a1:c ~b ~c:ct);
  }

(* Σₖ WₖᵀWₖ·cₖ with cₖ = 1/(1 + σλₖ): one reciprocal per term (the
   [Complex.div] scaling), the upper triangle accumulated and then
   mirrored, so Z is exactly symmetric *)
let modal_eval { lambda; w } sigma =
  let p = w.Mat.cols and a = w.Mat.a in
  let zre = Array.make (p * p) 0.0 and zim = Array.make (p * p) 0.0 in
  let sr = sigma.Complex.re and si = sigma.Complex.im in
  for k = 0 to Array.length lambda - 1 do
    let l = lambda.(k) in
    let dr = 1.0 +. (sr *. l) and di = si *. l in
    if dr = 0.0 && di = 0.0 then raise (Cmat.Singular k);
    let small_im = Float.abs dr >= Float.abs di in
    let r = if small_im then di /. dr else dr /. di in
    let d = if small_im then dr +. (r *. di) else di +. (r *. dr) in
    let cr = if small_im then 1.0 /. d else r /. d in
    let ci = if small_im then -.r /. d else -1.0 /. d in
    let row = k * p in
    for i = 0 to p - 1 do
      let wi = a.(row + i) in
      let ar = wi *. cr and ai = wi *. ci in
      let zi = i * p in
      for j = i to p - 1 do
        let wj = a.(row + j) in
        zre.(zi + j) <- zre.(zi + j) +. (ar *. wj);
        zim.(zi + j) <- zim.(zi + j) +. (ai *. wj)
      done
    done
  done;
  for i = 1 to p - 1 do
    for j = 0 to i - 1 do
      zre.((i * p) + j) <- zre.((j * p) + i);
      zim.((i * p) + j) <- zim.((j * p) + i)
    done
  done;
  if San.fp () then begin
    San.Fp.check_array ~name:"realisation.modal_eval.re" zre;
    San.Fp.check_array ~name:"realisation.modal_eval.im" zim
  end;
  { Cmat.rows = p; cols = p; re = zre; im = zim }

(* the complex quotient (br + i·bi)/(ar + i·ai), [Complex.div]'s scaling *)
let cdiv ar ai br bi =
  if Float.abs ar >= Float.abs ai then
    let r = ai /. ar in
    let d = ar +. (r *. ai) in
    ((br +. (r *. bi)) /. d, (bi -. (r *. br)) /. d)
  else
    let r = ar /. ai in
    let d = ai +. (r *. ar) in
    (((r *. br) +. bi) /. d, ((r *. bi) -. br) /. d)

(* The LU factors of k0 + σ·k1 by banded elimination: step k pivots
   among rows k … k + lower only (the first of largest modulus, as a
   dense partial pivoting would: every row below is zero in column k)
   and clears their column-k entries, so a factorisation costs
   O(nx²·lower) and a solve O(nx²·p). Rows are separate split arrays,
   swapped by reference, and entries left of a row's first live column
   are never read. Step k's multiplier for row k + d is (mr, mi) at
   k·width + d − 1 (width = lower), apart from the rows, which later
   steps swap *)
type lu = {
  ur : float array array;
  ui : float array array;
  mr : float array;
  mi : float array;
  piv : int array;
  width : int;
}

let band_factor { k0; k1; lower; _ } sigma =
  let n = k0.Mat.rows and ha = k0.Mat.a and ta = k1.Mat.a in
  let sr = sigma.Complex.re and si = sigma.Complex.im in
  let rr = Array.make n [||] and ri = Array.make n [||] in
  for i = 0 to n - 1 do
    let row = Array.create_float n and rowi = Array.create_float n in
    for j = max 0 (i - lower) to n - 1 do
      let t = ta.((i * n) + j) in
      row.(j) <- ha.((i * n) + j) +. (sr *. t);
      rowi.(j) <- si *. t
    done;
    rr.(i) <- row;
    ri.(i) <- rowi
  done;
  let piv = Array.make n (n - 1) in
  let ml = Array.make (n * lower) 0.0 and mli = Array.make (n * lower) 0.0 in
  for k = 0 to n - 2 do
    let last = min (n - 1) (k + lower) in
    let best = ref (Float.hypot rr.(k).(k) ri.(k).(k)) in
    piv.(k) <- k;
    for i = k + 1 to last do
      let a = Float.hypot rr.(i).(k) ri.(i).(k) in
      if a > !best then begin
        piv.(k) <- i;
        best := a
      end
    done;
    if !best = 0.0 then raise (Cmat.Singular k);
    let i = piv.(k) in
    if i <> k then begin
      let t = rr.(k) and ti = ri.(k) in
      rr.(k) <- rr.(i);
      ri.(k) <- ri.(i);
      rr.(i) <- t;
      ri.(i) <- ti
    end;
    let ur = rr.(k) and ui = ri.(k) in
    let ar = ur.(k) and ai = ui.(k) in
    for i = k + 1 to last do
      let lr = rr.(i) and li = ri.(i) in
      let br = lr.(k) and bi = li.(k) in
      if br <> 0.0 || bi <> 0.0 then begin
        let mr, mi = cdiv ar ai br bi in
        ml.((k * lower) + i - k - 1) <- mr;
        mli.((k * lower) + i - k - 1) <- mi;
        for j = k + 1 to n - 1 do
          let yr = Array.unsafe_get ur j and yi = Array.unsafe_get ui j in
          Array.unsafe_set lr j (Array.unsafe_get lr j -. ((mr *. yr) -. (mi *. yi)));
          Array.unsafe_set li j (Array.unsafe_get li j -. ((mr *. yi) +. (mi *. yr)))
        done
      end
    done
  done;
  if rr.(n - 1).(n - 1) = 0.0 && ri.(n - 1).(n - 1) = 0.0 then raise (Cmat.Singular (n - 1));
  { ur = rr; ui = ri; mr = ml; mi = mli; piv; width = lower }

(* X ← (k0 + σ·k1)⁻¹·X in place, X as p split columns of length nx.
   The back substitution takes two columns at a time (the second is the
   first again when p is odd), its inner loop along a row of U and down
   both columns *)
let band_solve { ur; ui; mr; mi; piv; width } xr xi =
  let n = Array.length ur and p = Array.length xr in
  let swap a k i =
    let t = a.(k) in
    a.(k) <- a.(i);
    a.(i) <- t
  in
  for j = 0 to p - 1 do
    let xr = xr.(j) and xi = xi.(j) in
    for k = 0 to n - 2 do
      if piv.(k) <> k then begin
        swap xr k piv.(k);
        swap xi k piv.(k)
      end;
      let yr = xr.(k) and yi = xi.(k) in
      for i = k + 1 to min (n - 1) (k + width) do
        let mr = mr.((k * width) + i - k - 1) and mi = mi.((k * width) + i - k - 1) in
        if mr <> 0.0 || mi <> 0.0 then begin
          xr.(i) <- xr.(i) -. ((mr *. yr) -. (mi *. yi));
          xi.(i) <- xi.(i) -. ((mr *. yi) +. (mi *. yr))
        end
      done
    done
  done;
  for h = 0 to (p - 1) / 2 do
    let j = 2 * h in
    let j' = min (j + 1) (p - 1) in
    let xr = xr.(j) and xi = xi.(j) and zr = xr.(j') and zi = xi.(j') in
    for i = n - 1 downto 0 do
      let ur = ur.(i) and ui = ui.(i) in
      let br = ref xr.(i) and bi = ref xi.(i) and cr = ref zr.(i) and ci = ref zi.(i) in
      for l = i + 1 to n - 1 do
        let ar = Array.unsafe_get ur l and ai = Array.unsafe_get ui l in
        let yr = Array.unsafe_get xr l and yi = Array.unsafe_get xi l in
        let wr = Array.unsafe_get zr l and wi = Array.unsafe_get zi l in
        br := !br -. ((ar *. yr) -. (ai *. yi));
        bi := !bi -. ((ar *. yi) +. (ai *. yr));
        cr := !cr -. ((ar *. wr) -. (ai *. wi));
        ci := !ci -. ((ar *. wi) +. (ai *. wr))
      done;
      let ar = ur.(i) and ai = ui.(i) in
      let br, bi = cdiv ar ai !br !bi and cr, ci = cdiv ar ai !cr !ci in
      xr.(i) <- br;
      xi.(i) <- bi;
      zr.(i) <- cr;
      zi.(i) <- ci
    done
  done

(* the columns of a real m, as split columns *)
let columns (m : Mat.t) =
  let n = m.Mat.rows and p = m.Mat.cols in
  ( Array.init p (fun j -> Array.init n (fun i -> m.Mat.a.((i * p) + j))),
    Array.init p (fun _ -> Array.make n 0.0) )

(* m·X for a real m and X as split columns, two columns at a time
   (the second is the first again when p is odd) *)
let mul_cols (m : Mat.t) xr xi =
  let rows = m.Mat.rows and n = m.Mat.cols and a = m.Mat.a and p = Array.length xr in
  let yr = Array.init p (fun _ -> Array.create_float rows) in
  let yi = Array.init p (fun _ -> Array.create_float rows) in
  for h = 0 to (p - 1) / 2 do
    let j = 2 * h in
    let j' = min (j + 1) (p - 1) in
    let ar = xr.(j) and ai = xi.(j) and br = xr.(j') and bi = xi.(j') in
    for i = 0 to rows - 1 do
      let sr = ref 0.0 and si = ref 0.0 and tr = ref 0.0 and ti = ref 0.0 in
      let row = i * n in
      for k = 0 to n - 1 do
        let c = Array.unsafe_get a (row + k) in
        sr := !sr +. (c *. Array.unsafe_get ar k);
        si := !si +. (c *. Array.unsafe_get ai k);
        tr := !tr +. (c *. Array.unsafe_get br k);
        ti := !ti +. (c *. Array.unsafe_get bi k)
      done;
      yr.(j).(i) <- !sr;
      yi.(j).(i) <- !si;
      yr.(j').(i) <- !tr;
      yi.(j').(i) <- !ti
    done
  done;
  (yr, yi)

(* z += m·X, z a p×p split matrix; the zeros of m add nothing *)
let add_mul (z : Cmat.t) (m : Mat.t) xr xi =
  let n = m.Mat.cols and p = z.Cmat.cols and a = m.Mat.a in
  for i = 0 to m.Mat.rows - 1 do
    for j = 0 to p - 1 do
      let yr = xr.(j) and yi = xi.(j) in
      let sr = ref z.Cmat.re.((i * p) + j) and si = ref z.Cmat.im.((i * p) + j) in
      for k = 0 to n - 1 do
        let ck = a.((i * n) + k) in
        if ck <> 0.0 then begin
          sr := !sr +. (ck *. yr.(k));
          si := !si +. (ck *. yi.(k))
        end
      done;
      z.Cmat.re.((i * p) + j) <- !sr;
      z.Cmat.im.((i * p) + j) <- !si
    done
  done

let checked (z : Cmat.t) =
  if San.fp () then begin
    San.Fp.check_array ~name:"realisation.hess_eval.re" z.Cmat.re;
    San.Fp.check_array ~name:"realisation.hess_eval.im" z.Cmat.im
  end;
  z

(* kc·(k0 + σ·k1)⁻¹·kb: a band-Lanczos T eliminated as it is, with a
   dense LU's pivots and rounding *)
let band_eval (band : band) sigma =
  let lu = band_factor band sigma in
  let xr, xi = columns band.kb in
  band_solve lu xr xi;
  let z = Cmat.create band.kc.Mat.rows band.kb.Mat.cols in
  add_mul z band.kc xr xi;
  checked z

(* c·(a0 + σ·a1)⁻¹·b on a reduced form, then one step of iterative
   refinement against the pencil itself. The reduction is backward
   stable only normwise, so on a graded pencil (states decades apart)
   X = D·Z·X̃ can be far off in its small entries; the residual
   R = b − (a0 + σ·a1)·X, taken entry by entry on the unreduced
   pencil, carries that error, and the form's solve of Qᵀ·D·R corrects
   it: Z = c·X + kc·(H + σ·T)⁻¹·Qᵀ·D·R. That is one more solve and
   three nx×nx-by-nx×p products per point *)
let hess_eval r { hb; qd; dz } sigma =
  let lu = band_factor hb sigma in
  let tr, ti = columns hb.kb in
  band_solve lu tr ti;
  let xr, xi = mul_cols dz tr ti in
  let n = r.a0.Mat.cols and p = r.b.Mat.cols in
  let sr = sigma.Complex.re and si = sigma.Complex.im in
  let a0 = r.a0.Mat.a and a1 = r.a1.Mat.a in
  let kr = Array.create_float n and ki = Array.create_float n in
  let res_r = Array.init p (fun _ -> Array.create_float n) in
  let res_i = Array.init p (fun _ -> Array.create_float n) in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let t = a1.((i * n) + k) in
      kr.(k) <- a0.((i * n) + k) +. (sr *. t);
      ki.(k) <- si *. t
    done;
    for h = 0 to (p - 1) / 2 do
      let j = 2 * h in
      let j' = min (j + 1) (p - 1) in
      let yr = xr.(j) and yi = xi.(j) and zr = xr.(j') and zi = xi.(j') in
      let vr = ref r.b.Mat.a.((i * p) + j) and vi = ref 0.0 in
      let wr = ref r.b.Mat.a.((i * p) + j') and wi = ref 0.0 in
      for k = 0 to n - 1 do
        let ar = Array.unsafe_get kr k and ai = Array.unsafe_get ki k in
        let br = Array.unsafe_get yr k and bi = Array.unsafe_get yi k in
        let cr = Array.unsafe_get zr k and ci = Array.unsafe_get zi k in
        vr := !vr -. ((ar *. br) -. (ai *. bi));
        vi := !vi -. ((ar *. bi) +. (ai *. br));
        wr := !wr -. ((ar *. cr) -. (ai *. ci));
        wi := !wi -. ((ar *. ci) +. (ai *. cr))
      done;
      res_r.(j).(i) <- !vr;
      res_i.(j).(i) <- !vi;
      res_r.(j').(i) <- !wr;
      res_i.(j').(i) <- !wi
    done
  done;
  let dr, di = mul_cols qd res_r res_i in
  band_solve lu dr di;
  let z = Cmat.create r.c.Mat.rows p in
  add_mul z r.c xr xi;
  add_mul z hb.kc dr di;
  checked z

let eval r s =
  let var = match r.variable with Circuit.Mna.S -> s | Circuit.Mna.S_squared -> Cx.(s *: s) in
  let sigma = if r.origin = 0.0 then var else Cx.(var -: re r.origin) in
  let z =
    match r.form with
    | Foster (poles, residues) ->
      (* AWE's scalar pole–residue sum: a modal solve would move its bits *)
      let acc = ref Cx.zero in
      Array.iteri (fun k p -> acc := Cx.(!acc +: (residues.(k) /: (sigma -: p)))) poles;
      let z = Cmat.create 1 1 in
      Cmat.set z 0 0 !acc;
      z
    | Modal md -> modal_eval md sigma
    | Band band -> band_eval band sigma
    | Hess h -> hess_eval r (if Cx.abs sigma <= h.cross then h.near else h.far) sigma
  in
  match r.gain with Circuit.Mna.Unit -> z | Circuit.Mna.Times_s -> Cmat.scale s z

let core r = { H.a0 = fold ~origin:r.origin r.a0 r.a1; a1 = r.a1; b = r.b; c = r.c }

let scale_of (pen : H.pencil) =
  let n0 = Mat.max_abs pen.H.a0 and n1 = Mat.max_abs pen.H.a1 in
  if n0 > 0.0 && n1 > 0.0 then n0 /. n1 else 1.0

let freq_scale r = scale_of (core r)

let augment r pen =
  H.augment
    ~square_var:(r.variable = Circuit.Mna.S_squared)
    ~times_s:(r.gain = Circuit.Mna.Times_s)
    pen

let phys_pencil r = augment r (core r)

(* a modal realisation's poles are read off its λₖ. Otherwise: finite
   poles of the core pencil, through the same shift-and-invert
   eigensolver the crossing test uses, pre-scaled by the core's own
   frequency scale so the O(1) seeds are meaningful (the augmented
   physical pencil would hide that scale behind its unit coupling
   blocks). A singular a1 pushes part of the spectrum to infinity;
   eigenvalues that come back merely ~huge (> 1e8 in scaled units) are
   that infinity seen through roundoff, not model poles — drop them.
   The seeds skip 0: a model with a pole at DC (singular G, hence a
   shifted expansion) would make the seed-0 inverse blow up, and the
   solver's cutoff relative to the largest inverted eigenvalue would
   then discard every ordinary pole, unstable ones included. *)
let pole_seeds = [| 1.0; -1.0; 0.7320508; -2.2360679; 3.7 |]

(* I + σΛ is singular at σ = −1/λₖ: the same cutoff, in var *)
let pole_at_infinity r =
  let ws = freq_scale r in
  fun l -> not (Float.abs (r.origin -. (1.0 /. l)) <= 1e8 *. ws)

let poles r =
  let pen = core r in
  let ws = scale_of pen in
  let var_poles =
    match r.form with
    | Modal { lambda; _ } ->
      let at_infinity = pole_at_infinity r in
      Array.to_list lambda
      |> List.filter (fun l -> not (at_infinity l))
      |> List.map (fun l -> Cx.re (r.origin -. (1.0 /. l)))
    | Foster _ | Band _ | Hess _ ->
      H.gen_eigenvalues ~seeds:pole_seeds pen.H.a0 (Mat.scale ws pen.H.a1)
      |> Array.to_list
      |> List.filter (fun s -> Cx.abs s <= 1e8)
      |> List.map (fun s -> Cx.smul ws s)
  in
  match r.variable with
  | Circuit.Mna.S -> Array.of_list var_poles
  | Circuit.Mna.S_squared ->
    (* each pole in var = s² is the pair s = ±√var *)
    Array.of_list
      (List.concat_map
         (fun p ->
           let q = Cx.sqrt p in
           [ q; Cx.neg q ])
         var_poles)

let moments r q =
  let k_mat = Mat.add (core r).H.a0 (Mat.scale r.shift r.a1) in
  let fac = Linalg.Lu.factor k_mat in
  let x = ref (Linalg.Lu.solve_mat fac r.b) in
  Array.init q (fun k ->
      if k > 0 then x := Linalg.Lu.solve_mat fac (Mat.mul r.a1 !x);
      Mat.scale (if k land 1 = 1 then -1.0 else 1.0) (Mat.mul r.c !x))
