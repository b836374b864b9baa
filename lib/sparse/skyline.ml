exception Singular of int

module type FIELD = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val abs : t -> float
end

module type SOLVER = sig
  type elt
  type t

  val factor :
    ?pivot_tol:float -> n:int -> first:int array -> get:(int -> int -> elt) -> unit -> t

  val dim : t -> int
  val solve : t -> elt array -> elt array
  val solve_lower : t -> elt array -> unit
  val solve_lower_t : t -> elt array -> unit
  val d : t -> elt array
  val fill : t -> int
end

module Make (F : FIELD) = struct
  type elt = F.t

  type t = {
    n : int;
    first : int array; (* first envelope column of each row *)
    rows : F.t array array; (* rows.(i) holds L(i, first.(i) .. i-1) *)
    diag : F.t array; (* D *)
  }

  let dim t = t.n

  let d t = Array.copy t.diag

  let fill t = Array.fold_left (fun acc r -> acc + Array.length r) 0 t.rows

  (* Row-wise envelope LDLᵀ:
       L(i,j) = (A(i,j) - Σ_{k<j} L(i,k) D(k) L(j,k)) / D(j)
       D(i)   = A(i,i) - Σ_{k<i} L(i,k)² D(k)
     with k restricted to max(first.(i), first.(j)). *)
  let factor ?(pivot_tol = 1e-14) ~n ~first ~get () =
    let rows = Array.init n (fun i -> Array.make (i - first.(i)) F.zero) in
    let diag = Array.make n F.zero in
    let dmax = ref 0.0 in
    for i = 0 to n - 1 do
      dmax := Float.max !dmax (F.abs (get i i))
    done;
    (* relative to the diagonal scale so femto-scale matrices factor *)
    let breakdown = pivot_tol *. !dmax in
    for i = 0 to n - 1 do
      let fi = first.(i) in
      let ri = rows.(i) in
      for j = fi to i - 1 do
        let fj = first.(j) in
        let k0 = max fi fj in
        let s = ref (get i j) in
        for k = k0 to j - 1 do
          s := F.sub !s (F.mul (F.mul ri.(k - fi) diag.(k)) rows.(j).(k - fj))
        done;
        ri.(j - fi) <- F.div !s diag.(j)
      done;
      let s = ref (get i i) in
      for k = fi to i - 1 do
        let lik = ri.(k - fi) in
        s := F.sub !s (F.mul (F.mul lik lik) diag.(k))
      done;
      if F.abs !s <= breakdown then raise (Singular i);
      diag.(i) <- !s
    done;
    (* fp sanitizer (SYMOR_SAN=fp): scan the factor for NaN/Inf and
       monitor element growth against the input diagonal scale — reads
       only, so sanitized results are bitwise identical *)
    if San.fp () then begin
      let lmax = ref 0.0 and dmax_out = ref 0.0 and finite = ref true in
      Array.iter
        (fun r ->
          Array.iter
            (fun x ->
              let a = F.abs x in
              if Float.is_finite a then begin
                if a > !lmax then lmax := a
              end
              else finite := false)
            r)
        rows;
      Array.iter
        (fun x ->
          let a = F.abs x in
          if Float.is_finite a then begin
            if a > !dmax_out then dmax_out := a
          end
          else finite := false)
        diag;
      if !finite then San.Fp.growth ~name:"skyline.factor" ~scale:!dmax ~lmax:!lmax ~dmax:!dmax_out
      else San.Fp.growth ~name:"skyline.factor" ~scale:!dmax ~lmax:Float.nan ~dmax:Float.nan
    end;
    { n; first; rows; diag }

  let solve_lower t y =
    if Array.length y <> t.n then invalid_arg "Skyline.solve_lower: length mismatch";
    for i = 0 to t.n - 1 do
      let fi = t.first.(i) in
      let ri = t.rows.(i) in
      let s = ref y.(i) in
      for k = fi to i - 1 do
        s := F.sub !s (F.mul ri.(k - fi) y.(k))
      done;
      y.(i) <- !s
    done

  let solve_lower_t t y =
    if Array.length y <> t.n then invalid_arg "Skyline.solve_lower_t: length mismatch";
    for i = t.n - 1 downto 0 do
      let yi = y.(i) in
      let fi = t.first.(i) in
      let ri = t.rows.(i) in
      for k = fi to i - 1 do
        y.(k) <- F.sub y.(k) (F.mul ri.(k - fi) yi)
      done
    done

  let solve t b =
    let y = Array.copy b in
    solve_lower t y;
    for i = 0 to t.n - 1 do
      y.(i) <- F.div y.(i) t.diag.(i)
    done;
    solve_lower_t t y;
    if San.fp () then begin
      let finite = ref true in
      Array.iter (fun x -> if not (Float.is_finite (F.abs x)) then finite := false) y;
      if not !finite then San.Fp.check ~name:"skyline.solve" Float.nan
    end;
    y
end

module Real = Make (struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let abs = Float.abs
end)

module Complex_sym = Make (struct
  type t = Complex.t

  let zero = Complex.zero
  let one = Complex.one
  let add = Complex.add
  let sub = Complex.sub
  let mul = Complex.mul
  let div = Complex.div
  let abs = Complex.norm
end)

let envelope_of_csr a =
  let n = a.Csr.rows in
  let first = Array.init n (fun i -> i) in
  for i = 0 to n - 1 do
    Csr.iter_row a i (fun j _ ->
        if j < first.(i) then first.(i) <- j;
        (* symmetrise the pattern: an upper entry (i, j), j > i, puts
           column i into row j's envelope *)
        if j > i && i < first.(j) then first.(j) <- i)
  done;
  first

(* scatter the lower triangle (plus diagonal) of a symmetric CSR matrix
   into envelope-aligned rows: row i spans columns first.(i) .. i, with
   the diagonal in the last slot. One pass over the stored entries — no
   per-entry row search. *)
let scatter_env n first a =
  let rows = Array.init n (fun i -> Array.make (i - first.(i) + 1) 0.0) in
  for i = 0 to n - 1 do
    Csr.iter_row a i (fun j v ->
        if j <= i then rows.(i).(j - first.(i)) <- v
        else rows.(j).(i - first.(j)) <- v)
  done;
  rows

type pencil_env = {
  pe_n : int;
  pe_first : int array; (* merged G/C envelope *)
  pe_g : float array array; (* G(i, first.(i) .. i), diagonal last *)
  pe_c : float array array; (* C, same layout *)
}

let pencil_env g c =
  assert (g.Csr.rows = g.Csr.cols && c.Csr.rows = c.Csr.cols && g.Csr.rows = c.Csr.rows);
  if Obs.tracing () then Obs.span_begin "skyline.symbolic";
  let fg = envelope_of_csr g and fc = envelope_of_csr c in
  let n = g.Csr.rows in
  let first = Array.init n (fun i -> min fg.(i) fc.(i)) in
  let env =
    { pe_n = n; pe_first = first; pe_g = scatter_env n first g; pe_c = scatter_env n first c }
  in
  if Obs.tracing () then begin
    let nnz = ref 0 in
    for i = 0 to n - 1 do
      nnz := !nnz + (i - first.(i) + 1)
    done;
    Obs.gauge "skyline.env_nnz" (float_of_int !nnz);
    Obs.span_end ()
  end;
  env

let factor_real ?pivot_tol a =
  assert (a.Csr.rows = a.Csr.cols);
  let n = a.Csr.rows in
  let first = envelope_of_csr a in
  let rows = scatter_env n first a in
  Real.factor ?pivot_tol ~n ~first ~get:(fun i j -> rows.(i).(j - first.(i))) ()

let factor_pencil_real ?pivot_tol ?(extra = [||]) env s0 =
  let n = env.pe_n and first = env.pe_first in
  (* numeric assembly A = G + s₀·C into envelope-aligned rows; [extra]
     entries (lower triangle, inside the envelope) are accumulated on
     top — the Newton-Jacobian hook of the transient engine *)
  let rows =
    Array.init n (fun i ->
        let ge = env.pe_g.(i) and ce = env.pe_c.(i) in
        Array.init (i - first.(i) + 1) (fun k -> ge.(k) +. (s0 *. ce.(k))))
  in
  Array.iter
    (fun (i, j, v) ->
      let i, j = if i >= j then (i, j) else (j, i) in
      if j < first.(i) then invalid_arg "Skyline.factor_pencil_real: extra entry outside envelope";
      rows.(i).(j - first.(i)) <- rows.(i).(j - first.(i)) +. v)
    extra;
  Real.factor ?pivot_tol ~n ~first ~get:(fun i j -> rows.(i).(j - first.(i))) ()

let widen_env env extra_first =
  let n = env.pe_n in
  assert (Array.length extra_first = n);
  let first = Array.init n (fun i -> min env.pe_first.(i) (min extra_first.(i) i)) in
  let pad rows =
    Array.init n (fun i ->
        let shift = env.pe_first.(i) - first.(i) in
        if shift = 0 then rows.(i)
        else begin
          let r = Array.make (i - first.(i) + 1) 0.0 in
          Array.blit rows.(i) 0 r shift (Array.length rows.(i));
          r
        end)
  in
  { pe_n = n; pe_first = first; pe_g = pad env.pe_g; pe_c = pad env.pe_c }

let factor_complex_env ?pivot_tol env s =
  let first = env.pe_first in
  let get i j =
    let k = j - first.(i) in
    Complex.add
      { Complex.re = env.pe_g.(i).(k); im = 0.0 }
      (Complex.mul s { Complex.re = env.pe_c.(i).(k); im = 0.0 })
  in
  Complex_sym.factor ?pivot_tol ~n:env.pe_n ~first ~get ()

let factor_complex ?pivot_tol s g c = factor_complex_env ?pivot_tol (pencil_env g c) s

(* Split-complex (SoA) specialisation of the complex-symmetric LDLᵀ:
   re/im live in separate float arrays, so the recurrences run on
   unboxed floats instead of boxed Complex.t. Used by the AC hot path;
   Complex_sym stays as the reference oracle. *)
module Complex_soa = struct
  type t = {
    n : int;
    first : int array;
    rows_re : float array array; (* L(i, first.(i) .. i-1) *)
    rows_im : float array array;
    diag_re : float array; (* D *)
    diag_im : float array;
  }

  let dim t = t.n

  let fill t = Array.fold_left (fun acc r -> acc + Array.length r) 0 t.rows_re

  let d t = Array.init t.n (fun i -> { Complex.re = t.diag_re.(i); im = t.diag_im.(i) })

  let factor_pencil_numeric ~pivot_tol env s =
    let n = env.pe_n and first = env.pe_first in
    let s_re = s.Complex.re and s_im = s.Complex.im in
    let rows_re = Array.init n (fun i -> Array.make (i - first.(i)) 0.0) in
    let rows_im = Array.init n (fun i -> Array.make (i - first.(i)) 0.0) in
    let diag_re = Array.make n 0.0 and diag_im = Array.make n 0.0 in
    (* numeric assembly A = G + s·C straight into the factor storage;
       the strictly-lower slots are overwritten in place by L below *)
    for i = 0 to n - 1 do
      let ge = env.pe_g.(i) and ce = env.pe_c.(i) in
      let rre = rows_re.(i) and rim = rows_im.(i) in
      let len = i - first.(i) in
      for k = 0 to len - 1 do
        rre.(k) <- ge.(k) +. (s_re *. ce.(k));
        rim.(k) <- s_im *. ce.(k)
      done;
      diag_re.(i) <- ge.(len) +. (s_re *. ce.(len));
      diag_im.(i) <- s_im *. ce.(len)
    done;
    let dmax = ref 0.0 in
    for i = 0 to n - 1 do
      dmax := Float.max !dmax (Float.hypot diag_re.(i) diag_im.(i))
    done;
    let breakdown = pivot_tol *. !dmax in
    for i = 0 to n - 1 do
      let fi = first.(i) in
      let rire = rows_re.(i) and riim = rows_im.(i) in
      for j = fi to i - 1 do
        let fj = first.(j) in
        let rjre = rows_re.(j) and rjim = rows_im.(j) in
        let sre = ref rire.(j - fi) and sim = ref riim.(j - fi) in
        for k = max fi fj to j - 1 do
          (* s -= L(i,k) · D(k) · L(j,k) *)
          let are = rire.(k - fi) and aim = riim.(k - fi) in
          let bre = diag_re.(k) and bim = diag_im.(k) in
          let tre = (are *. bre) -. (aim *. bim) in
          let tim = (are *. bim) +. (aim *. bre) in
          let cre = rjre.(k - fj) and cim = rjim.(k - fj) in
          sre := !sre -. ((tre *. cre) -. (tim *. cim));
          sim := !sim -. ((tre *. cim) +. (tim *. cre))
        done;
        let dre = diag_re.(j) and dim = diag_im.(j) in
        let den = (dre *. dre) +. (dim *. dim) in
        rire.(j - fi) <- ((!sre *. dre) +. (!sim *. dim)) /. den;
        riim.(j - fi) <- ((!sim *. dre) -. (!sre *. dim)) /. den
      done;
      let sre = ref diag_re.(i) and sim = ref diag_im.(i) in
      for k = fi to i - 1 do
        (* s -= L(i,k)² · D(k) *)
        let lre = rire.(k - fi) and lim = riim.(k - fi) in
        let l2re = (lre *. lre) -. (lim *. lim) in
        let l2im = 2.0 *. lre *. lim in
        let bre = diag_re.(k) and bim = diag_im.(k) in
        sre := !sre -. ((l2re *. bre) -. (l2im *. bim));
        sim := !sim -. ((l2re *. bim) +. (l2im *. bre))
      done;
      if Float.hypot !sre !sim <= breakdown then raise (Singular i);
      diag_re.(i) <- !sre;
      diag_im.(i) <- !sim
    done;
    if San.fp () then begin
      let lmax = ref 0.0 and dmax_out = ref 0.0 and finite = ref true in
      let scan acc re im =
        Array.iteri
          (fun k x ->
            let a = Float.hypot x im.(k) in
            if Float.is_finite a then begin
              if a > !acc then acc := a
            end
            else finite := false)
          re
      in
      for i = 0 to n - 1 do
        scan lmax rows_re.(i) rows_im.(i)
      done;
      scan dmax_out diag_re diag_im;
      if !finite then
        San.Fp.growth ~name:"skyline.complex_soa" ~scale:!dmax ~lmax:!lmax ~dmax:!dmax_out
      else San.Fp.growth ~name:"skyline.complex_soa" ~scale:!dmax ~lmax:Float.nan ~dmax:Float.nan
    end;
    { n; first; rows_re; rows_im; diag_re; diag_im }

  (* the traced entry point: one "skyline.numeric" span per frequency
     point plus an O(n) envelope flop estimate — all behind the
     tracing branch, so the disabled path is the bare kernel *)
  let factor_pencil ?(pivot_tol = 1e-14) env s =
    if Obs.tracing () then begin
      Obs.span_begin "skyline.numeric";
      Obs.count "skyline.factor_points" 1;
      let first = env.pe_first in
      let fl = ref 0.0 in
      for i = 0 to env.pe_n - 1 do
        let len = float_of_int (i - first.(i)) in
        fl := !fl +. (len *. len /. 2.0)
      done;
      (* a complex mul-add is ~8 real flops on the split representation *)
      Obs.countf "skyline.flops_est" (8.0 *. !fl)
    end;
    match factor_pencil_numeric ~pivot_tol env s with
    | fac ->
      if Obs.tracing () then Obs.span_end ();
      fac
    | exception e ->
      if Obs.tracing () then Obs.span_end ();
      raise e

  let solve_split t b_re b_im =
    assert (Array.length b_re = t.n && Array.length b_im = t.n);
    (* forward substitution with unit-lower L, in place *)
    for i = 0 to t.n - 1 do
      let fi = t.first.(i) in
      let rre = t.rows_re.(i) and rim = t.rows_im.(i) in
      let sre = ref b_re.(i) and sim = ref b_im.(i) in
      for k = fi to i - 1 do
        let lre = rre.(k - fi) and lim = rim.(k - fi) in
        let yre = b_re.(k) and yim = b_im.(k) in
        sre := !sre -. ((lre *. yre) -. (lim *. yim));
        sim := !sim -. ((lre *. yim) +. (lim *. yre))
      done;
      b_re.(i) <- !sre;
      b_im.(i) <- !sim
    done;
    (* diagonal *)
    for i = 0 to t.n - 1 do
      let dre = t.diag_re.(i) and dim = t.diag_im.(i) in
      let den = (dre *. dre) +. (dim *. dim) in
      let yre = b_re.(i) and yim = b_im.(i) in
      b_re.(i) <- ((yre *. dre) +. (yim *. dim)) /. den;
      b_im.(i) <- ((yim *. dre) -. (yre *. dim)) /. den
    done;
    (* back substitution with Lᵀ *)
    for i = t.n - 1 downto 0 do
      let fi = t.first.(i) in
      let rre = t.rows_re.(i) and rim = t.rows_im.(i) in
      let yre = b_re.(i) and yim = b_im.(i) in
      for k = fi to i - 1 do
        let lre = rre.(k - fi) and lim = rim.(k - fi) in
        b_re.(k) <- b_re.(k) -. ((lre *. yre) -. (lim *. yim));
        b_im.(k) <- b_im.(k) -. ((lre *. yim) +. (lim *. yre))
      done
    done;
    if San.fp () then begin
      San.Fp.check_array ~name:"skyline.solve_split.re" b_re;
      San.Fp.check_array ~name:"skyline.solve_split.im" b_im
    end
end
