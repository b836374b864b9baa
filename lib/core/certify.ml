module D = Circuit.Diagnostic
module H = Linalg.Hamiltonian
module Mat = Linalg.Mat
module Cmat = Linalg.Cmat
module Cx = Linalg.Cx

type realisation = {
  engine : Rom.engine;
  g0 : Mat.t;
  g1 : Mat.t;
  bin : Mat.t;
  cout : Mat.t;
  nx : int;
  np : int;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
  sym : (Mat.t * Mat.t * Mat.t) option;
  foster : (Complex.t array * Complex.t array) option;
  definite : bool;
}

let sym_tol = 1e-8

let near_symmetric m = Mat.is_symmetric ~tol:sym_tol m

(* g0 = K(s₀) − s₀·g1 folds the expansion shift into the constant
   coefficient, so the realisation lives directly in the pencil
   variable [var] with no σ bookkeeping left *)
let fold_shift ~shift k g1 = if shift = 0.0 then k else Mat.sub k (Mat.scale shift g1)

let of_sympvl (m : Model.t) =
  let n = m.Model.order in
  let g1 = m.Model.t_mat in
  let g0 = fold_shift ~shift:m.Model.shift (Mat.identity n) g1 in
  let cout = Mat.mul (Mat.transpose m.Model.rho) m.Model.delta in
  (* Δ-congruence: Z = ρᵀΔ(g0 + var·g1)⁻¹ρ = (Δρ)ᵀ[Δg0 + var·Δg1]⁻¹(Δρ),
     a symmetric sandwich whenever Δ and ΔT come out symmetric (exact
     arithmetic guarantees both; roundoff is checked) *)
  let sym =
    let dt = Mat.mul m.Model.delta g1 in
    if near_symmetric m.Model.delta && near_symmetric dt then
      Some
        ( fold_shift ~shift:m.Model.shift m.Model.delta dt,
          dt,
          Mat.mul m.Model.delta m.Model.rho )
    else None
  in
  {
    engine = `Sympvl;
    g0;
    g1;
    bin = m.Model.rho;
    cout;
    nx = n;
    np = m.Model.p;
    shift = m.Model.shift;
    variable = m.Model.variable;
    gain = m.Model.gain;
    sym;
    foster = None;
    definite = m.Model.definite && m.Model.shift = 0.0;
  }

let of_mpvl (m : Mpvl.t) =
  let n = m.Mpvl.order in
  let g1 = m.Mpvl.t_mat in
  let g0 = fold_shift ~shift:m.Mpvl.shift (Mat.identity n) g1 in
  let dinv_mu =
    Mat.init n m.Mpvl.p (fun i j -> Mat.get m.Mpvl.mu i j /. Mat.get m.Mpvl.d i i)
  in
  (* Λ-recovery: unit-norm two-sided Lanczos vectors of a symmetric
     operator satisfy w_j = ±v_j, i.e. η = Λμ with Λ = diag(λ_j);
     per-row least squares estimates λ_j, and when the fit is tight
     with every λ_j > 0, Z = ηᵀ(ΛD + var·ΛDT)⁻¹η is a symmetric
     sandwich again *)
  let sym =
    let p = m.Mpvl.p in
    let lam = Array.make n 0.0 in
    let ok = ref (n > 0) in
    for i = 0 to n - 1 do
      let num = ref 0.0 and den = ref 0.0 in
      for j = 0 to p - 1 do
        let mu = Mat.get m.Mpvl.mu i j and eta = Mat.get m.Mpvl.eta i j in
        num := !num +. (eta *. mu);
        den := !den +. (mu *. mu)
      done;
      if !den <= 0.0 then ok := false
      else begin
        lam.(i) <- !num /. !den;
        if lam.(i) <= 0.0 then ok := false
      end
    done;
    if not !ok then None
    else begin
      let escale = Float.max (Mat.max_abs m.Mpvl.eta) 1e-300 in
      let resid = ref 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to p - 1 do
          let r = Mat.get m.Mpvl.eta i j -. (lam.(i) *. Mat.get m.Mpvl.mu i j) in
          resid := Float.max !resid (Float.abs r)
        done
      done;
      if !resid > sym_tol *. escale then None
      else begin
        let s_mat = Mat.mul m.Mpvl.d g1 in
        let st = Mat.init n n (fun i j -> lam.(i) *. Mat.get s_mat i j) in
        let dt = Mat.init n n (fun i j -> lam.(i) *. Mat.get m.Mpvl.d i j) in
        if near_symmetric st then
          Some (fold_shift ~shift:m.Mpvl.shift dt st, st, m.Mpvl.eta)
        else None
      end
    end
  in
  {
    engine = `Mpvl;
    g0;
    g1;
    bin = dinv_mu;
    cout = Mat.transpose m.Mpvl.eta;
    nx = n;
    np = m.Mpvl.p;
    shift = m.Mpvl.shift;
    variable = m.Mpvl.variable;
    gain = m.Mpvl.gain;
    sym;
    foster = None;
    definite = false;
  }

let of_prima (m : Arnoldi.t) =
  (* the congruence projection already lives in the physical pencil
     variable — the shift only chose the Krylov space *)
  let sym =
    if near_symmetric m.Arnoldi.ghat && near_symmetric m.Arnoldi.chat then
      Some (m.Arnoldi.ghat, m.Arnoldi.chat, m.Arnoldi.bhat)
    else None
  in
  {
    engine = `Prima;
    g0 = m.Arnoldi.ghat;
    g1 = m.Arnoldi.chat;
    bin = m.Arnoldi.bhat;
    cout = Mat.transpose m.Arnoldi.bhat;
    nx = m.Arnoldi.order;
    np = m.Arnoldi.p;
    shift = m.Arnoldi.shift;
    variable = m.Arnoldi.variable;
    gain = m.Arnoldi.gain;
    sym;
    foster = None;
    definite = false;
  }

let of_sprim (m : Sprim.t) =
  (* like PRIMA, the split-and-re-blocked congruence lives in the
     physical pencil variable; ghat/chat are symmetric by construction
     (the blocks were explicitly symmetrised after projection), so the
     symmetric-form certificate always applies. The pencil is
     indefinite (−ℒ̂ block), so MOD002 correctly reports "no definite
     certificate" and MOD003's Hamiltonian band test carries the
     passivity claim. *)
  let sym =
    if near_symmetric m.Sprim.ghat && near_symmetric m.Sprim.chat then
      Some (m.Sprim.ghat, m.Sprim.chat, m.Sprim.bhat)
    else None
  in
  {
    engine = `Sprim;
    g0 = m.Sprim.ghat;
    g1 = m.Sprim.chat;
    bin = m.Sprim.bhat;
    cout = Mat.transpose m.Sprim.bhat;
    nx = m.Sprim.order;
    np = m.Sprim.p;
    shift = m.Sprim.shift;
    variable = m.Sprim.variable;
    gain = m.Sprim.gain;
    sym;
    foster = None;
    definite = false;
  }

let of_bt (m : Btruncation.t) =
  let n = m.Btruncation.order in
  {
    engine = `Bt;
    g0 = m.Btruncation.ahat;
    g1 = Mat.identity n;
    bin = m.Btruncation.bhat;
    cout = Mat.transpose m.Btruncation.bhat;
    nx = n;
    np = m.Btruncation.p;
    shift = 0.0;
    variable = Circuit.Mna.S;
    gain = Circuit.Mna.Unit;
    sym = Some (m.Btruncation.ahat, Mat.identity n, m.Btruncation.bhat);
    foster = None;
    definite = true;
  }

let of_awe (m : Awe.t) =
  (* modal realisation of the σ-domain pole/residue form: one 1×1
     block per real pole (r/(σ−p)), one 2×2 rotation block per
     conjugate pair (2[ρ(σ−α) − γβ]/((σ−α)² + β²)); each positive-
     imaginary pole stands for its pair *)
  let pscale =
    Array.fold_left (fun acc p -> Float.max acc (Cx.abs p)) 1e-300 m.Awe.poles
  in
  let blocks = ref [] in
  Array.iteri
    (fun i p ->
      let r = m.Awe.residues.(i) in
      if Float.abs p.Complex.im <= 1e-9 *. pscale then
        blocks := `Real (p.Complex.re, r.Complex.re) :: !blocks
      else if p.Complex.im > 0.0 then
        blocks := `Pair (p.Complex.re, p.Complex.im, r.Complex.re, r.Complex.im) :: !blocks)
    m.Awe.poles;
  let blocks = List.rev !blocks in
  let nx = List.fold_left (fun acc b -> acc + match b with `Real _ -> 1 | `Pair _ -> 2) 0 blocks in
  let g0s = Mat.create nx nx in
  let g1 = Mat.identity nx in
  let bin = Mat.create nx 1 in
  let cout = Mat.create 1 nx in
  let k = ref 0 in
  List.iter
    (fun b ->
      (match b with
      | `Real (p, r) ->
        Mat.set g0s !k !k (-.p);
        Mat.set bin !k 0 r;
        Mat.set cout 0 !k 1.0;
        incr k
      | `Pair (alpha, beta, rho, gamma) ->
        Mat.set g0s !k !k (-.alpha);
        Mat.set g0s !k (!k + 1) (-.beta);
        Mat.set g0s (!k + 1) !k beta;
        Mat.set g0s (!k + 1) (!k + 1) (-.alpha);
        Mat.set bin !k 0 1.0;
        Mat.set cout 0 !k (2.0 *. rho);
        Mat.set cout 0 (!k + 1) (2.0 *. gamma);
        k := !k + 2))
    blocks;
  let s0 = m.Awe.shift in
  let s_poles = Array.map (fun p -> Cx.(p +: re s0)) m.Awe.poles in
  {
    engine = `Awe;
    g0 = fold_shift ~shift:s0 g0s g1;
    g1;
    bin;
    cout;
    nx;
    np = 1;
    shift = s0;
    variable = Circuit.Mna.S;
    gain = m.Awe.gain;
    sym = None;
    foster = Some (s_poles, Array.copy m.Awe.residues);
    definite = false;
  }

let state_space = function
  | Rom.Sympvl_model m -> of_sympvl m
  | Rom.Mpvl_model m -> of_mpvl m
  | Rom.Prima_model m -> of_prima m
  | Rom.Sprim_model m -> of_sprim m
  | Rom.Awe_model m -> of_awe m
  | Rom.Bt_model m -> of_bt m

let phys_pencil r =
  H.augment
    ~square_var:(r.variable = Circuit.Mna.S_squared)
    ~times_s:(r.gain = Circuit.Mna.Times_s)
    { H.a0 = r.g0; a1 = r.g1; b = r.bin; c = r.cout }

(* ------------------------------------------------------------------ *)
(* MOD002: structural certificate                                      *)

type certificate =
  | Certified of string
  | Violated of string * float
  | No_certificate of string

let min_eig_rel m =
  let scale = Float.max (Mat.max_abs m) 1e-300 in
  (Linalg.Eig_sym.min_eigenvalue (Mat.sym_part m) /. scale, scale)

let foster_certificate ~tol poles residues =
  let pscale =
    Array.fold_left (fun acc p -> Float.max acc (Cx.abs p)) 1e-300 poles
  in
  let rscale =
    Array.fold_left (fun acc r -> Float.max acc (Cx.abs r)) 1e-300 residues
  in
  let worst = ref 0.0 in
  Array.iter
    (fun p ->
      worst := Float.max !worst (Float.abs p.Complex.im /. pscale);
      worst := Float.max !worst (p.Complex.re /. pscale))
    poles;
  Array.iter
    (fun r ->
      worst := Float.max !worst (Float.abs r.Complex.im /. rscale);
      worst := Float.max !worst (-.r.Complex.re /. rscale))
    residues;
  if !worst <= tol then
    Certified
      "Foster form is positive-real: every pole is real negative and every \
       residue real nonnegative"
  else
    Violated
      ( "pole/residue form is not a nonnegative Foster expansion (complex or \
         right-half-plane pole, or negative residue)",
        !worst )

let structural_certificate ?(tol = 1e-9) ?definite r =
  let definite = match definite with Some d -> d | None -> r.definite in
  match (r.foster, r.sym) with
  | Some (poles, residues), _ -> (
    match foster_certificate ~tol:(Float.max tol 1e-6) poles residues with
    | Violated (why, _) when not definite ->
      (* a non-Foster pole/residue form (complex poles, mixed-sign
         residues) proves nothing either way for an engine that never
         promised passivity — MOD003 is the authority then *)
      No_certificate (why ^ " — no structural argument applies")
    | c -> c)
  | None, None ->
    No_certificate
      "no symmetric-form recovery for this realisation (two-sided recurrence \
       lost the congruence structure)"
  | None, Some (h0, h1, _) ->
    if r.variable = Circuit.Mna.S_squared && r.gain = Circuit.Mna.Unit then
      No_certificate
        "the s² pencil without the lossless gain factor admits no structural \
         passivity argument"
    else begin
      let e0, _ = min_eig_rel h0 and e1, _ = min_eig_rel h1 in
      let emin = Float.min e0 e1 in
      if emin >= -.tol then
        Certified
          (Printf.sprintf
             "recovered symmetric form w'(H0 + var*H1)^-1 w with H0 >= 0 (min \
              eig %.2e rel) and H1 >= 0 (min eig %.2e rel)"
             e0 e1)
      else if definite then
        Violated
          ( Printf.sprintf
              "recovered symmetric form is indefinite: min eig H0 %.2e rel, H1 \
               %.2e rel"
              e0 e1,
            emin )
      else
        (* an indefinite sandwich on a path that never promised
           definiteness (J ≠ I, shifted expansion, indefinite source
           pencil) contradicts no theorem — there is just nothing to
           certify structurally; the Hamiltonian test (MOD003) is the
           authority then *)
        No_certificate
          (Printf.sprintf
             "recovered symmetric form is indefinite (min eig H0 %.2e rel, H1 \
              %.2e rel), as expected outside the definite unshifted path"
             e0 e1)
    end

(* ------------------------------------------------------------------ *)
(* the certification pass                                              *)

type report = {
  findings : D.t list;
  bands : H.band list;
  safe_order : int option;
}

let pencil_freq_scale (pen : H.pencil) =
  let n0 = Mat.max_abs pen.H.a0 and n1 = Mat.max_abs pen.H.a1 in
  if n0 > 0.0 && n1 > 0.0 then n0 /. n1 else 1.0

(* the realisation's natural frequency scale, from the *core* pencil —
   the augmentation's unit coupling blocks hide it in the physical
   pencil (max|a1| saturates at 1), so |g0|/|g1| and the expansion
   point are the meaningful magnitudes *)
let core_freq_scale r =
  let n0 = Mat.max_abs r.g0 and n1 = Mat.max_abs r.g1 in
  let pencil = if n0 > 0.0 && n1 > 0.0 then n0 /. n1 else 1.0 in
  Float.max pencil (Float.abs r.shift)

(* finite physical poles of the augmented pencil, through the same
   shift-and-invert eigensolver the crossing test uses (pre-scaled so
   the O(1) seeds are meaningful). A singular a1 pushes part of the
   spectrum to infinity; eigenvalues that come back merely ~huge
   (|s| > 1e8 in scaled units) are that infinity seen through
   roundoff, not model poles — drop them. The seeds skip s = 0: a
   model with a pole at DC (singular G, hence a shifted expansion)
   would make the seed-0 inverse blow up, and the solver's cutoff
   relative to the largest inverted eigenvalue would then discard
   every ordinary pole, unstable ones included. *)
let pole_seeds = [| 1.0; -1.0; 0.7320508; -2.2360679; 3.7 |]

let poles_of (pen : H.pencil) =
  let ws = pencil_freq_scale pen in
  H.gen_eigenvalues ~seeds:pole_seeds pen.H.a0 (Mat.scale ws pen.H.a1)
  |> Array.to_list
  |> List.filter (fun s -> Cx.abs s <= 1e8)
  |> List.map (fun s -> Cx.smul ws s)
  |> Array.of_list

(* compare a (possibly scalar) model matrix against the exact p×p one:
   a single-port realisation of a multi-port pencil reads entry (0,0)
   — the same convention as the cross-engine golden test *)
let rel_dist_mat ~scalar got want =
  let want =
    if scalar then Mat.init 1 1 (fun _ _ -> Mat.get want 0 0) else want
  in
  Mat.dist_max got want /. Float.max (Mat.max_abs want) 1e-300

(* first q moments of the realisation about its expansion point:
   m_k = (−1)ᵏ·cout·(K⁻¹g1)ᵏ·K⁻¹·bin with K = g0 + s₀·g1 *)
let realisation_moments r q =
  let k_mat = Mat.add r.g0 (Mat.scale r.shift r.g1) in
  let fac = Linalg.Lu.factor k_mat in
  let x = ref (Linalg.Lu.solve_mat fac r.bin) in
  Array.init q (fun k ->
      if k > 0 then x := Linalg.Lu.solve_mat fac (Mat.mul r.g1 !x);
      Mat.scale (if k land 1 = 1 then -1.0 else 1.0) (Mat.mul r.cout !x))

(* MOD002 first: MOD001's severity depends on whether the structural
   certificate promised stability *)
let structural r (mna : Circuit.Mna.t) =
  let tol = 1e-9 in
  let engine = Rom.name r.engine in
  let definite =
    (* the congruence projection of an SPD source pencil promises
       semidefiniteness — only the source (mna) knows *)
    match r.engine with `Prima -> mna.Circuit.Mna.spd | _ -> r.definite
  in
  let cert = structural_certificate ~tol ~definite r in
  let promised = match cert with Certified _ -> true | _ -> false in
  let mod002 =
    match cert with
    | Certified why ->
      D.info "MOD002" (Printf.sprintf "%s: passivity certified — %s" engine why)
    | No_certificate why ->
      D.info "MOD002"
        (Printf.sprintf "%s: no structural passivity certificate — %s" engine why)
    | Violated (why, e) ->
      (* a violated certificate on the definite unshifted SyMPVL path
         contradicts the paper's Theorem 5.1 — that is an error; on the
         other certified engines it degrades to a warning *)
      let mk = if r.engine = `Sympvl && r.definite then D.error else D.warning in
      mk "MOD002"
        (Printf.sprintf "%s: passivity certificate violated (%.2e): %s" engine e why)
  in
  let poles = poles_of (phys_pencil r) in
  (* a pole within tol of the axis *relative to the pencil's frequency
     scale* is numerically on the axis: a shifted expansion computes
     s = σ + s₀ as a difference of large numbers, so its roundoff is
     scaled by s₀, not by |s| *)
  let pscale =
    Array.fold_left
      (fun acc p -> Float.max acc (Cx.abs p))
      (Float.max 1.0 (core_freq_scale r))
      poles
  in
  let unstable =
    Array.to_list poles |> List.filter (fun p -> p.Complex.re > tol *. pscale)
  in
  let mod001 =
    match unstable with
    | [] ->
      D.info "MOD001"
        (Printf.sprintf "%s: all %d finite poles in the closed left half-plane"
           engine (Array.length poles))
    | worst :: _ as us ->
      let worst =
        List.fold_left (fun a p -> if p.Complex.re > a.Complex.re then p else a) worst us
      in
      let mk = if promised then D.error else D.warning in
      mk "MOD001"
        (Printf.sprintf
           "%s: %d unstable pole(s), worst Re = %.3e%s — the reduced model \
            diverges in time domain"
           engine (List.length us) worst.Complex.re
           (if promised then " (structural theorem promised stability)" else ""))
  in
  [ mod002; mod001 ]

let fmt_hz w = Printf.sprintf "%.4g Hz" (w /. (2.0 *. Float.pi))

let run ?ctx ?drift_band ?(shift_requested = false) model (mna : Circuit.Mna.t) =
  Obs.with_span "certify.run" @@ fun () ->
  let tol = 1e-9 in
  let r = state_space model in
  let engine = Rom.name r.engine in
  let phys = phys_pencil r in
  let scalar = r.np = 1 && mna.Circuit.Mna.b.Mat.cols > 1 in
  let findings = ref [] in
  let emit d = findings := d :: !findings in
  (* -------- MOD002 then MOD001: the structural findings -------- *)
  List.iter emit (structural r mna);
  (* -------- MOD003/MOD007: Hamiltonian violation bands -------- *)
  let bands =
    Obs.with_span "certify.hamiltonian" @@ fun () -> H.violation_bands ~tol phys
  in
  (match bands with
  | [] ->
    emit
      (D.info "MOD003"
         (Printf.sprintf
            "%s: Hamiltonian test found no passivity violation on the whole \
             imaginary axis (tol %.1e)"
            engine tol))
  | bs ->
    Obs.count "certify.violation_band" (List.length bs);
    emit
      (D.warning "MOD003"
         (Printf.sprintf
            "%s: Hamiltonian test located %d passivity violation band(s) — \
             grid sampling can miss these entirely"
            engine (List.length bs)));
    List.iter
      (fun (b : H.band) ->
        let lo = if b.H.w_lo > 0.0 then fmt_hz b.H.w_lo else "DC" in
        let hi = if Float.is_finite b.H.w_hi then fmt_hz b.H.w_hi else "infinity" in
        emit
          (D.warning "MOD007"
             (Printf.sprintf
                "%s: violation band [%s, %s], worst at %s: min eig Re Z = \
                 %.3e (relative to |Z| = %.3e)"
                engine lo hi (fmt_hz b.H.w_worst) b.H.lambda_min b.H.scale)))
      bs);
  (* suggested safe order: walk the SyMPVL truncation down until the
     band test comes back clean (every order is a cluster boundary on
     the J = I path) *)
  let safe_order =
    match (model, bands) with
    | Rom.Sympvl_model m, _ :: _ ->
      let rec search k attempts =
        if k < 1 || attempts <= 0 then None
        else begin
          let rt = state_space (Rom.Sympvl_model (Model.truncate m k)) in
          match H.violation_bands ~tol (phys_pencil rt) with
          | [] -> Some k
          | _ -> search (k - 1) (attempts - 1)
        end
      in
      search (m.Model.order - 1) 12
    | _ -> None
  in
  (match safe_order with
  | Some k ->
    emit
      (D.info "MOD007"
         (Printf.sprintf
            "%s: truncating to order %d removes every violation band — \
             consider reducing the order"
            engine k))
  | None -> ());
  (* -------- MOD004: reciprocity -------- *)
  (Obs.with_span "certify.reciprocity" @@ fun () ->
   if r.np > 1 then begin
     let wsc = core_freq_scale r in
     let worst = ref 0.0 in
     List.iter
       (fun mult ->
         match H.herm_min_eig phys (mult *. wsc) with
         | None -> ()
         | Some _ ->
           let z = H.eval phys (Cx.im (mult *. wsc)) in
           let res =
             Cmat.dist_max z (Cmat.transpose z) /. Float.max (Cmat.max_abs z) 1e-300
           in
           worst := Float.max !worst res)
       [ 0.01; 0.1; 1.0; 10.0; 100.0 ];
     if !worst > 1e-6 then
       emit
         (D.warning "MOD004"
            (Printf.sprintf
               "%s: reciprocity residual max |Z - Z^T|/|Z| = %.2e — a reciprocal \
                network must have a symmetric impedance matrix"
               engine !worst))
     else
       emit
         (D.info "MOD004"
            (Printf.sprintf "%s: reciprocal (max |Z - Z^T|/|Z| = %.2e)" engine !worst))
   end
   else
     emit (D.info "MOD004" (Printf.sprintf "%s: single-port model — reciprocity is trivial" engine)));
  (Obs.with_span "certify.moments" @@ fun () ->
   (* -------- MOD005: moment matching -------- *)
   let mom_rtol = match r.engine with `Awe -> 1e-3 | _ -> 1e-6 in
   let expected = Rom.expected_moments model in
   let q = min expected 6 in
   if q = 0 then
     emit
       (D.info "MOD005"
          (Printf.sprintf
             "%s: matches no prescribed moments by construction — check skipped"
             engine))
   else begin
     match
       let exact = Moments.exact ?ctx ~shift:r.shift mna q in
       let got = realisation_moments r q in
       (exact, got)
     with
     | exact, got ->
       let j = ref 0 in
       (try
          for k = 0 to q - 1 do
            if rel_dist_mat ~scalar got.(k) exact.(k) <= mom_rtol then incr j
            else raise Exit
          done
        with Exit -> ());
       if !j >= q then
         emit
           (D.info "MOD005"
              (Printf.sprintf
                 "%s: matches the first %d moment(s) at s0 = %.3g to rtol %.0e \
                  (%d promised)"
                 engine !j r.shift mom_rtol expected))
       else
         emit
           (D.warning "MOD005"
              (Printf.sprintf
                 "%s: only %d of the first %d moment(s) match at s0 = %.3g \
                  (rtol %.0e) — the Pade property is not holding numerically"
                 engine !j q r.shift mom_rtol))
     | exception (Factor.Singular _ | Linalg.Lu.Singular _) ->
       emit
         (D.info "MOD005"
            (Printf.sprintf
               "%s: pencil singular at the expansion point — moment check skipped"
               engine))
   end;
   (* -------- MOD006: DC exactness (gain-free cores on both sides) ---- *)
   (match
      let exact0 = (Moments.exact ?ctx ~shift:0.0 mna 1).(0) in
      let z0 = Linalg.Lu.solve_mat (Linalg.Lu.factor r.g0) r.bin in
      (exact0, Mat.mul r.cout z0)
    with
   | exact0, got0 ->
     let rel = rel_dist_mat ~scalar got0 exact0 in
     let dc_rtol = match r.engine with `Awe -> 1e-3 | _ -> 1e-6 in
     if rel <= dc_rtol then
       emit
         (D.info "MOD006"
            (Printf.sprintf "%s: DC point exact to %.2e relative" engine rel))
     else
       emit
         (D.warning "MOD006"
            (Printf.sprintf
               "%s: DC mismatch %.2e relative vs the exact zeroth moment at s = 0"
               engine rel))
   | exception (Factor.Singular _ | Linalg.Lu.Singular _) ->
     emit
       (D.info "MOD006"
          (Printf.sprintf
             "%s: G (or the reduced g0) is singular at DC — netlist has no DC \
              path; check skipped"
             engine))));
  (* -------- MOD008: shift vs certified regime -------- *)
  if r.shift <> 0.0 then begin
    let mk = if shift_requested && mna.Circuit.Mna.spd then D.warning else D.info in
    emit
      (mk "MOD008"
         (Printf.sprintf
            "%s: expansion point s0 = %.3g is outside the certified regime — \
             the structural passivity theorem needs the definite pencil at \
             s0 = 0%s"
            engine r.shift
            (if shift_requested && mna.Circuit.Mna.spd then
               " (the pencil is SPD, so the certified path was available)"
             else "")))
  end;
  (* -------- MOD009: drift vs the exact transfer function -------- *)
  (match ctx with
  | None -> ()
  | Some ctx ->
    Obs.with_span "certify.drift" @@ fun () ->
    let k = 4 in
    let w_of i =
      let t = float_of_int i /. float_of_int (k - 1) in
      match drift_band with
      | Some (f_lo, f_hi) ->
        2.0 *. Float.pi *. (10.0 ** (log10 f_lo +. (t *. (log10 f_hi -. log10 f_lo))))
      | None ->
        (* no band known: two decades around the realisation's own scale *)
        core_freq_scale r *. (10.0 ** (-2.0 +. (4.0 *. t)))
    in
    (* the exact Z(jω) of the full pencil, through the same kernel as
       Simulate.Ac; a lossless (LC) pencil is exactly singular at its
       resonances — a sample that lands on one is dropped, not an error *)
    let exact w =
      let s = Cx.im w in
      let var =
        match mna.Circuit.Mna.variable with
        | Circuit.Mna.S -> s
        | Circuit.Mna.S_squared -> Cx.(s *: s)
      in
      let z = Pencil.transfer ctx (Pencil.factor_complex ctx var) in
      match mna.Circuit.Mna.gain with
      | Circuit.Mna.Unit -> z
      | Circuit.Mna.Times_s -> Cmat.scale s z
    in
    let exacts =
      Array.init k (fun i ->
          match exact (w_of i) with z -> Some z | exception Factor.Singular _ -> None)
    in
    (* same error metric as the golden fixtures: the denominator is
       floored at 1e-3 of the sweep-wide |Z| scale, so a deep null in
       one sample cannot blow up the relative error *)
    let zsweep =
      Array.fold_left
        (fun acc z ->
          match z with Some z -> Float.max acc (Cmat.max_abs z) | None -> acc)
        1e-300 exacts
    in
    let worst = ref 0.0 and used = ref 0 in
    Array.iteri
      (fun i exact ->
        match exact with
        | None -> ()
        | Some exact ->
          incr used;
          let got = H.eval phys (Cx.im (w_of i)) in
          let want =
            if scalar then Cmat.init 1 1 (fun _ _ -> Cmat.get exact 0 0) else exact
          in
          let err =
            Cmat.dist_max got want
            /. Float.max (Cmat.max_abs want) (1e-3 *. zsweep)
          in
          worst := Float.max !worst err)
      exacts;
    let rtol = Rom.golden_rtol r.engine in
    if !used = 0 then
      emit
        (D.info "MOD009"
           (Printf.sprintf
              "%s: every drift sample landed on a singular pencil (lossless \
               resonances) — check skipped"
              engine))
    else if !worst <= rtol then
      emit
        (D.info "MOD009"
           (Printf.sprintf
              "%s: drift vs the exact transfer function %.2e over %d sample(s) \
               (within the documented %.0e)"
              engine !worst !used rtol))
    else
      emit
        (D.warning "MOD009"
           (Printf.sprintf
              "%s: drift %.2e vs the exact transfer function exceeds the \
               documented %.0e — the model has left its validated regime"
              engine !worst rtol)));
  { findings = D.sort (List.rev !findings); bands; safe_order }

(* ------------------------------------------------------------------ *)
(* the certify request: the defaults every front end shares            *)

let request_order engine (mna : Circuit.Mna.t) order =
  if order < 0 then
    Circuit.Diagnostic.user_errorf "certify order must be >= 0 (got %d)" order
  else if order > 0 then order
  else match engine with `Awe -> 3 | _ -> mna.Circuit.Mna.n

let request ~ctx ?shift ?band model mna =
  let drift_band =
    match (band, Rom.engine_of_model model) with
    | Some b, _ -> Some b
    | None, `Awe -> Some (1e6, 1e10)
    | None, _ -> None
  in
  run ~ctx ?drift_band ~shift_requested:(shift <> None) model mna
