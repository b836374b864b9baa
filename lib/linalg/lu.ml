(* [Mat] with its accessors restated here: a dev-profile build compiles
   with -opaque, where [Mat.get] cannot inline across the module
   boundary and every call boxes its float *)
module Mat = struct
  include Mat

  let[@inline] get m i j = m.a.((i * m.cols) + j)

  let[@inline] set m i j x = m.a.((i * m.cols) + j) <- x

  let[@inline] add_to m i j x = m.a.((i * m.cols) + j) <- m.a.((i * m.cols) + j) +. x
end

type t = { lu : Mat.t; piv : int array; sign : float }

exception Singular of int

let factor m =
  let open Mat in
  assert (m.rows = m.cols);
  let n = m.rows in
  let lu = copy m in
  let piv = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* partial pivoting: find the largest entry in column k at/below row k *)
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get lu i k) > Float.abs (get lu !p k) then p := i
    done;
    if !p <> k then begin
      for j = 0 to n - 1 do
        let tmp = get lu k j in
        set lu k j (get lu !p j);
        set lu !p j tmp
      done;
      let tmp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tmp;
      sign := -. !sign
    end;
    let pivot = get lu k k in
    if pivot = 0.0 then raise (Singular k);
    for i = k + 1 to n - 1 do
      let lik = get lu i k /. pivot in
      set lu i k lik;
      if lik <> 0.0 then
        for j = k + 1 to n - 1 do
          add_to lu i j (-.lik *. get lu k j)
        done
    done
  done;
  { lu; piv; sign = !sign }

let solve_vec f b =
  let open Mat in
  let n = f.lu.rows in
  assert (Vec.dim b = n);
  let x = Vec.init n (fun i -> b.(f.piv.(i))) in
  (* forward: L y = P b, unit lower triangular *)
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (get f.lu i j *. x.(j))
    done
  done;
  (* backward: U x = y *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (get f.lu i j *. x.(j))
    done;
    x.(i) <- x.(i) /. get f.lu i i
  done;
  x

let solve_mat f b =
  let open Mat in
  let x = create b.rows b.cols in
  for j = 0 to b.cols - 1 do
    Mat.set_col x j (solve_vec f (col b j))
  done;
  x

let solve m b = solve_vec (factor m) b

let det f =
  let n = f.lu.Mat.rows in
  let d = ref f.sign in
  for i = 0 to n - 1 do
    d := !d *. Mat.get f.lu i i
  done;
  !d

let inverse m = solve_mat (factor m) (Mat.identity m.Mat.rows)

let rcond_estimate f =
  let n = f.lu.Mat.rows in
  if n = 0 then 1.0
  else begin
    let dmin = ref infinity and dmax = ref 0.0 in
    for i = 0 to n - 1 do
      let d = Float.abs (Mat.get f.lu i i) in
      dmin := Float.min !dmin d;
      dmax := Float.max !dmax d
    done;
    if !dmax = 0.0 then 0.0 else !dmin /. !dmax
  end
