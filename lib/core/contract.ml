module D = Circuit.Diagnostic

let enabled () =
  match Sys.getenv_opt "SYMOR_CHECK" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let max_abs_values (a : Sparse.Csr.t) =
  Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a.Sparse.Csr.values

let symmetry_residual a =
  let d = Sparse.Csr.add ~alpha:1.0 ~beta:(-1.0) a (Sparse.Csr.transpose a) in
  max_abs_values d /. Float.max (max_abs_values a) 1e-300

let check_sym ~tol code name a =
  let r = symmetry_residual a in
  if r > tol then
    D.error code
      (Printf.sprintf
         "%s is not symmetric: relative residual ‖%s − %sᵀ‖ = %.3e (tol %.1e) — \
          the symmetric Lanczos recurrence is invalid on this pencil"
         name name name r tol)
  else
    D.info code
      (Printf.sprintf "%s symmetry residual %.3e (tol %.1e): ok" name r tol)

let check_mna ?(tol = 1e-8) (m : Circuit.Mna.t) =
  [
    check_sym ~tol "NUM001" "G" m.Circuit.Mna.g;
    check_sym ~tol "NUM002" "C" m.Circuit.Mna.c;
  ]

let check_lanczos ?(drift_tol = 1e-6) ~j ~dtol ~ctol (res : Band_lanczos.result) =
  let v = res.Band_lanczos.vectors in
  let n = res.Band_lanczos.order in
  let big_n = v.Linalg.Mat.rows in
  let jv =
    Linalg.Mat.init big_n n (fun i k -> j.(i) *. Linalg.Mat.get v i k)
  in
  let vtjv = Linalg.Mat.mul (Linalg.Mat.transpose v) jv in
  let scale = Float.max (Linalg.Mat.max_abs res.Band_lanczos.delta) 1e-300 in
  let drift =
    Linalg.Mat.max_abs (Linalg.Mat.sub vtjv res.Band_lanczos.delta) /. scale
  in
  let drift_diag =
    if drift > drift_tol then
      D.warning "NUM003"
        (Printf.sprintf
           "J-orthogonality drift ‖VᵀJV − Δ‖/‖Δ‖ = %.3e exceeds %.1e — the \
           Lanczos basis has lost orthogonality (tighten dtol/ctol or enable \
           full reorthogonalisation)"
           drift drift_tol)
    else
      D.info "NUM003"
        (Printf.sprintf "J-orthogonality drift %.3e (tol %.1e): ok" drift drift_tol)
  in
  let tol_diags =
    (if dtol < ctol then
       [
         D.warning "NUM004"
           (Printf.sprintf
              "deflation tolerance dtol = %.1e is finer than the cluster-closing \
               tolerance ctol = %.1e — candidates can be kept inside clusters \
               that never close; use dtol >= ctol"
              dtol ctol);
       ]
     else [])
    @
    if dtol < 100.0 *. epsilon_float then
      [
        D.warning "NUM004"
          (Printf.sprintf
             "deflation tolerance dtol = %.1e is at machine-precision level — \
              exact deflations will be missed and the basis will degenerate"
             dtol);
      ]
    else []
  in
  let defl =
    match res.Band_lanczos.deflations with
    | [] ->
      D.info "NUM004"
        (Printf.sprintf "no deflations (dtol %.1e, ctol %.1e): block size held" dtol
           ctol)
    | ds ->
      let shown = List.filteri (fun i _ -> i < 8) ds in
      D.info "NUM004"
        (Printf.sprintf "%d deflation(s) at iteration(s) %s%s (dtol %.1e)"
           (List.length ds)
           (String.concat ", " (List.map string_of_int shown))
           (if List.length ds > 8 then ", …" else "")
           dtol)
  in
  let exhausted =
    if res.Band_lanczos.exhausted then
      [
        D.info "NUM004"
          "Krylov space exhausted: the reduced model matches the original \
           transfer function exactly";
      ]
    else []
  in
  (drift_diag :: tol_diags) @ (defl :: exhausted)

let check_pencil ?(tol = 1e-7) ctx ~shift =
  (* backward-residual probe of the shared pencil context: solve
     K(s₀)x = b through the (cached) factorisation and measure
     ‖K x − b‖∞ against ‖K‖·‖x‖ — a cheap end-to-end consistency
     check of ordering, envelope scatter and numeric factor *)
  let n = Pencil.n ctx in
  let g = Pencil.g ctx and c = Pencil.c ctx in
  let b = Array.init n (fun i -> 1.0 +. float_of_int (i mod 3)) in
  let fac = Pencil.factor ctx ~shift in
  let x = fac.Factor.solve b in
  let gx = Sparse.Csr.mul_vec g x in
  let cx = Sparse.Csr.mul_vec c x in
  let inf a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a in
  let resid =
    let worst = ref 0.0 in
    for i = 0 to n - 1 do
      worst := Float.max !worst (Float.abs (gx.(i) +. (shift *. cx.(i)) -. b.(i)))
    done;
    !worst
  in
  let kscale = max_abs_values g +. (Float.abs shift *. max_abs_values c) in
  let rel = resid /. Float.max ((kscale *. inf x) +. inf b) 1e-300 in
  [
    (if rel > tol then
       D.warning "NUM007"
         (Printf.sprintf
            "pencil factor-solve residual ‖K(s₀)x − b‖/(‖K‖‖x‖+‖b‖) = %.3e \
             exceeds %.1e at shift %.3e — the factorisation of the shared \
             context is inaccurate (ill-conditioned pencil; try another shift)"
            rel tol shift)
     else
       D.info "NUM007"
         (Printf.sprintf "pencil factor-solve residual %.3e at shift %.3e (tol %.1e): ok"
            rel shift tol));
  ]
