type pencil = { a0 : Mat.t; a1 : Mat.t; b : Mat.t; c : Mat.t }

let nx pen = pen.a0.Mat.rows

let np pen = pen.b.Mat.cols

(* natural frequency scale of the pencil: |a0| / |a1| balances the two
   coefficient matrices, which keeps both the eigenproblem and the
   shift-and-invert seeds O(1) *)
let freq_scale pen =
  let n0 = Mat.max_abs pen.a0 and n1 = Mat.max_abs pen.a1 in
  if n0 > 0.0 && n1 > 0.0 then n0 /. n1 else 1.0

let augment ~square_var ~times_s pen =
  if (not square_var) && not times_s then pen
  else begin
    (* x₂ = s·x turns both conventions into plain descriptor form:
         var = s²:  a0·x + a1·var·x = b·u  becomes
                    [a0 0; 0 −I]·[x;x₂] + s·[0 a1; I 0]·[x;x₂] = [b;0]·u
         var = s:   same with s·[a1 0; I 0]
       and the s·Z_core gain is the output picking x₂ instead of x. *)
    let n = nx pen and p = np pen in
    let a0 =
      Mat.init (2 * n) (2 * n) (fun i j ->
          if i < n && j < n then Mat.get pen.a0 i j
          else if i >= n && j >= n && i = j then -1.0
          else 0.0)
    in
    let a1 =
      Mat.init (2 * n) (2 * n) (fun i j ->
          if i < n then
            if square_var then if j >= n then Mat.get pen.a1 i (j - n) else 0.0
            else if j < n then Mat.get pen.a1 i j
            else 0.0
          else if j = i - n then 1.0
          else 0.0)
    in
    let b =
      Mat.init (2 * n) p (fun i j -> if i < n then Mat.get pen.b i j else 0.0)
    in
    let c =
      Mat.init p (2 * n) (fun i j ->
          if times_s then if j >= n then Mat.get pen.c i (j - n) else 0.0
          else if j < n then Mat.get pen.c i j
          else 0.0)
    in
    { a0; a1; b; c }
  end

let eval pen s =
  let k = Cmat.lincomb Cx.one pen.a0 s pen.a1 in
  let x = Cmat.lu_solve_mat (Cmat.lu_factor k) (Cmat.of_real pen.b) in
  Cmat.mul (Cmat.of_real pen.c) x

let herm_min_eig_of eval w =
  match eval (Cx.im w) with
  | z ->
    (* a non-finite Z never reaches the eigensolver *)
    let scale = Cmat.max_abs z in
    if not (Float.is_finite scale) then None
    else
      let lam = Cmat.min_eig_hermitian (Cmat.hermitian_part z) in
      if Float.is_finite lam then Some (lam, scale) else None
  | exception Cmat.Singular _ -> None

let herm_min_eig pen w = herm_min_eig_of (eval pen) w

(* ------------------------------------------------------------------ *)
(* generalized eigenvalues by real shift-and-invert                    *)

let default_seeds = [| 0.0; 1.0; -1.0; 0.7320508; -2.2360679; 3.7 |]

let gen_eigenvalues ?(seeds = default_seeds) a b =
  let n = a.Mat.rows in
  if n = 0 then [||]
  else begin
    let result = ref None in
    let k = ref 0 in
    while !result = None && !k < Array.length seeds do
      let mu = seeds.(!k) in
      incr k;
      (* a seed that lands on an eigenvalue (singular factor) or makes
         the QR iteration stall just falls through to the next one *)
      (match Lu.factor (Mat.add a (Mat.scale mu b)) with
      | fac -> (
        let f = Lu.solve_mat fac b in
        match Eig_gen.eigenvalues f with
        | thetas ->
          let tmax =
            Array.fold_left (fun acc t -> Float.max acc (Cx.abs t)) 0.0 thetas
          in
          let cutoff = 1e-13 *. Float.max tmax 1e-300 in
          let eigs =
            thetas
            |> Array.to_list
            |> List.filter_map (fun theta ->
                   (* (a + μb)x + (s − μ)bx = 0  ⇒  θ = −1/(s − μ) *)
                   if Cx.abs theta <= cutoff then None
                   else
                     let s = Cx.(re mu -: inv theta) in
                     if Cx.is_finite s then Some s else None)
            |> Array.of_list
          in
          result := Some eigs
        | exception Failure _ -> ())
      | exception Lu.Singular _ -> ())
    done;
    match !result with Some eigs -> eigs | None -> [||]
  end

(* ------------------------------------------------------------------ *)
(* level crossings of Herm Z(jω)                                       *)

let crossings ?(rtol = 1e-4) ~level pen =
  assert (level < 0.0);
  let n = nx pen in
  if n = 0 then [||]
  else begin
    let ws = freq_scale pen in
    let a1s = Mat.scale ws pen.a1 in
    (* S = D + Dᵀ − 2γI with D = 0: a positive multiple of I *)
    let sinv = -1.0 /. (2.0 *. level) in
    let bc = Mat.mul pen.b pen.c in
    let bbt = Mat.mul pen.b (Mat.transpose pen.b) in
    let ctc = Mat.mul (Mat.transpose pen.c) pen.c in
    let m = Mat.create (2 * n) (2 * n) in
    let nn = Mat.create (2 * n) (2 * n) in
    let blk dst r0 c0 src coef =
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Mat.add_to dst (r0 + i) (c0 + j) (coef *. Mat.get src i j)
        done
      done
    in
    let blk_t dst r0 c0 src coef =
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Mat.add_to dst (r0 + i) (c0 + j) (coef *. Mat.get src j i)
        done
      done
    in
    blk m 0 0 pen.a0 1.0;
    blk m 0 0 bc sinv;
    blk m 0 n bbt sinv;
    blk m n 0 ctc sinv;
    blk_t m n n pen.a0 1.0;
    blk_t m n n bc sinv;
    (* M z = s·diag(−a1, a1ᵀ) z  ⇔  M + s·diag(a1, −a1ᵀ) singular *)
    blk nn 0 0 a1s 1.0;
    blk_t nn n n a1s (-1.0);
    gen_eigenvalues m nn
    |> Array.to_list
    |> List.filter_map (fun s ->
           let re = Float.abs s.Complex.re and im = Float.abs s.Complex.im in
           if re <= rtol *. Float.max (Cx.abs s) 1.0 && im > 1e-10 then
             Some (im *. ws)
           else None)
    |> List.sort_uniq Float.compare
    |> fun ws_list ->
    (* merge numerically coincident crossings (the ± pair of a real
       eigenvalue of the Hamiltonian pencil, plus eig roundoff) *)
    let merged = ref [] in
    List.iter
      (fun w ->
        match !merged with
        | prev :: _ when w -. prev <= 1e-7 *. w -> ()
        | _ -> merged := w :: !merged)
      ws_list;
    Array.of_list (List.rev !merged)
  end

(* ------------------------------------------------------------------ *)
(* violation bands                                                     *)

type band = {
  w_lo : float;
  w_hi : float;
  w_worst : float;
  lambda_min : float;
  scale : float;
}

let probe_multipliers = [| 1e-3; 1e-2; 0.1; 0.3; 1.0; 3.0; 10.0; 100.0; 1e3 |]

let violation_bands ?(tol = 1e-9) ?eval:z_of pen =
  if nx pen = 0 || np pen = 0 then []
  else begin
    let herm_min_eig = herm_min_eig_of (Option.value z_of ~default:(eval pen)) in
    let ws = freq_scale pen in
    let probes =
      Array.to_list probe_multipliers
      |> List.filter_map (fun m ->
             let w = m *. ws in
             match herm_min_eig w with
             | Some (lam, scale) -> Some (w, lam, scale)
             | None -> None)
    in
    let zscale =
      List.fold_left (fun acc (_, _, s) -> Float.max acc s) 0.0 probes
      |> fun s -> if s > 0.0 then s else 1.0
    in
    let level = -.tol *. zscale in
    let xs = crossings ~level pen |> Array.to_list in
    (* candidate intervals: (0, x₁), (x₁, x₂), …, (x_k, ∞) *)
    let rec intervals lo = function
      | [] -> [ (lo, infinity) ]
      | x :: rest -> (lo, x) :: intervals x rest
    in
    let ivals = intervals 0.0 xs in
    let interior (lo, hi) =
      let base =
        if lo = 0.0 then
          if Float.is_finite hi then [ hi /. 2.0; hi *. 1e-2 ] else [ ws ]
        else if Float.is_finite hi then [ sqrt (lo *. hi) ]
        else [ 10.0 *. lo; 100.0 *. lo ]
      in
      let inside =
        List.filter_map
          (fun (w, _, _) -> if w > lo && w < hi then Some w else None)
          probes
      in
      base @ inside
    in
    let min_at wlist =
      List.fold_left
        (fun acc w ->
          match herm_min_eig w with
          | Some (lam, _) -> (
            match acc with
            | Some (_, best) when best <= lam -> acc
            | _ -> Some (w, lam))
          | None -> acc)
        None wlist
    in
    let classified =
      List.map
        (fun iv ->
          match min_at (interior iv) with
          | Some (w, lam) -> (iv, lam < level, w, lam)
          | None -> (iv, false, fst iv, 0.0))
        ivals
    in
    (* merge adjacent violating intervals (a spurious boundary from the
       generous real-part filter splits one true band in two) *)
    let merged =
      List.fold_left
        (fun acc ((lo, hi), bad, w, lam) ->
          if not bad then acc
          else
            match acc with
            | (plo, phi, pw, plam) :: rest when phi = lo ->
              let w, lam = if lam < plam then (w, lam) else (pw, plam) in
              (plo, hi, w, lam) :: rest
            | _ -> (lo, hi, w, lam) :: acc)
        [] classified
      |> List.rev
    in
    List.map
      (fun (lo, hi, w0, lam0) ->
        (* refine the deepest point with a log-spaced interior sweep;
           the whole axis (0, ∞) is sampled around the frequency scale *)
        let slo, shi =
          match (lo > 0.0, Float.is_finite hi) with
          | true, true -> (lo, hi)
          | true, false -> (lo, lo *. 1e6)
          | false, true -> (Float.max (hi *. 1e-6) 1e-300, hi)
          | false, false -> (ws *. 1e-3, ws *. 1e3)
        in
        let k = 33 in
        let samples =
          List.init k (fun i ->
              let t = (float_of_int i +. 0.5) /. float_of_int k in
              slo *. ((shi /. slo) ** t))
        in
        let w_worst, lambda_min =
          match min_at (w0 :: samples) with
          | Some (w, lam) when lam < lam0 -> (w, lam)
          | _ -> (w0, lam0)
        in
        { w_lo = lo; w_hi = hi; w_worst; lambda_min; scale = zscale })
      merged
  end
