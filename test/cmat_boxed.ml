(* Reference oracle for the split-array kernels in [Linalg.Cmat]: the
   same dense complex LU, substitution, product and linear combination
   written entry by entry with [Complex.t] and the [Cx] operators.
   [test_cmat] checks the library kernels against these bit for bit. *)

open Linalg

let get = Cmat.get

let set = Cmat.set

let add_to = Cmat.add_to

let lincomb a ma b mb =
  assert (ma.Mat.rows = mb.Mat.rows && ma.Mat.cols = mb.Mat.cols);
  Cmat.init ma.Mat.rows ma.Mat.cols (fun i j ->
      Cx.(smul (Mat.get ma i j) a +: smul (Mat.get mb i j) b))

let of_real r = Cmat.init r.Mat.rows r.Mat.cols (fun i j -> Cx.re (Mat.get r i j))

let mul (x : Cmat.t) (y : Cmat.t) =
  assert (x.cols = y.rows);
  let z = Cmat.create x.rows y.cols in
  for i = 0 to x.rows - 1 do
    for k = 0 to x.cols - 1 do
      let xik = get x i k in
      if xik.Complex.re <> 0.0 || xik.Complex.im <> 0.0 then
        for j = 0 to y.cols - 1 do
          add_to z i j Cx.(xik *: get y k j)
        done
    done
  done;
  z

type lu = { lu_mat : Cmat.t; piv : int array }

let lu_factor (m0 : Cmat.t) =
  assert (m0.rows = m0.cols);
  let n = m0.rows in
  let m = Cmat.copy m0 in
  let piv = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Cx.abs (get m i k) > Cx.abs (get m !p k) then p := i
    done;
    if !p <> k then begin
      for j = 0 to n - 1 do
        let tkj = get m k j in
        set m k j (get m !p j);
        set m !p j tkj
      done;
      let t = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- t
    end;
    let pivot = get m k k in
    if Cx.abs pivot = 0.0 then raise (Cmat.Singular k);
    for i = k + 1 to n - 1 do
      let lik = Cx.(get m i k /: pivot) in
      set m i k lik;
      if Cx.abs lik <> 0.0 then
        for j = k + 1 to n - 1 do
          add_to m i j Cx.(neg (lik *: get m k j))
        done
    done
  done;
  { lu_mat = m; piv }

let lu_solve_vec f b =
  let n = f.lu_mat.Cmat.rows in
  assert (Array.length b = n);
  let x = Array.init n (fun i -> b.(f.piv.(i))) in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- Cx.(x.(i) -: (get f.lu_mat i j *: x.(j)))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- Cx.(x.(i) -: (get f.lu_mat i j *: x.(j)))
    done;
    x.(i) <- Cx.(x.(i) /: get f.lu_mat i i)
  done;
  x

let lu_solve_mat f (b : Cmat.t) =
  let x = Cmat.create b.rows b.cols in
  for j = 0 to b.cols - 1 do
    let cj = Array.init b.rows (fun i -> get b i j) in
    let xj = lu_solve_vec f cj in
    for i = 0 to b.rows - 1 do
      set x i j xj.(i)
    done
  done;
  x

let solve a b = lu_solve_mat (lu_factor a) b
