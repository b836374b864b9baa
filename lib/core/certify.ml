module D = Circuit.Diagnostic
module H = Linalg.Hamiltonian
module Mat = Linalg.Mat
module Cmat = Linalg.Cmat
module Cx = Linalg.Cx

(* ------------------------------------------------------------------ *)
(* MOD002: structural certificate                                      *)

type certificate =
  | Certified of string
  | Violated of string * float
  | No_certificate of string

let min_eig_rel m =
  let scale = Float.max (Mat.max_abs m) 1e-300 in
  (Linalg.Eig_sym.min_eigenvalue (Mat.sym_part m) /. scale, scale)

let structural_certificate ?(tol = 1e-9) ?definite (r : Realisation.t) =
  let definite = match definite with Some d -> d | None -> r.Realisation.definite in
  match r.Realisation.sym with
  | None ->
    No_certificate
      "no symmetric-form recovery for this realisation (two-sided recurrence \
       lost the congruence structure)"
  | Some (h0, h1, _) ->
    if r.Realisation.variable = Circuit.Mna.S_squared && r.Realisation.gain = Circuit.Mna.Unit
    then
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

(* the realisation's natural frequency scale: the core pencil's
   |g0|/|g1| in the realisation's variable (read without building the
   augmented pencil), or the expansion point when that is larger *)
let core_freq_scale (r : Realisation.t) =
  Float.max (Realisation.freq_scale r) (Float.abs r.Realisation.shift)

(* a model matrix against the exact one, relative to |want| *)
let rel_dist_mat ?(floor = 1e-300) got want =
  Mat.dist_max got want /. Float.max (Mat.max_abs want) floor

(* the decade samples around the realisation's scale MOD004 reads *)
let scale_samples = [ 0.01; 0.1; 1.0; 10.0; 100.0 ]

(* the largest finite |Z_core| over those samples, gain not applied; 0
   when none is finite *)
let gain_free_scale (r : Realisation.t) =
  let core = { r with Realisation.gain = Circuit.Mna.Unit } and wsc = core_freq_scale r in
  List.fold_left
    (fun acc mult ->
      match Realisation.eval core (Cx.im (mult *. wsc)) with
      | exception Cmat.Singular _ -> acc
      | z ->
        let scale = Cmat.max_abs z in
        if Float.is_finite scale then Float.max acc scale else acc)
    0.0 scale_samples

(* MOD002 first: MOD001's severity depends on whether the structural
   certificate promised stability *)
let structural model (mna : Circuit.Mna.t) =
  let tol = 1e-9 in
  let eng = Rom.engine_of_model model and r = Rom.realisation model in
  let engine = Rom.name eng in
  let definite =
    (* the congruence projection of an SPD source pencil promises
       semidefiniteness — only the source (mna) knows *)
    match eng with `Prima -> mna.Circuit.Mna.spd | _ -> r.Realisation.definite
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
      let mk = if eng = `Sympvl && r.Realisation.definite then D.error else D.warning in
      mk "MOD002"
        (Printf.sprintf "%s: passivity certificate violated (%.2e): %s" engine e why)
  in
  let poles = Realisation.poles r in
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

(* On the jω axis a modal realisation Z = gain·Σₖ WₖᵀWₖ/(1 + σλₖ),
   σ = var − origin, has Herm Z = Σₖ WₖᵀWₖ·ρₖ(ω): PSD residues times
   scalar real parts, so Z is positive real once every ρₖ ≥ 0 for all
   ω. With o = origin:
   - var s, unit gain: ρ = (1 − oλ)/((1 − oλ)² + ω²λ²), so oλ ≤ 1;
   - var s, ×s gain:   ρ = ω²λ/((1 − oλ)² + ω²λ²), so λ ≥ 0;
   - var s², ×s gain:  Z(jω) is imaginary off the poles (lossless);
   - var s², unit gain: Z(jω) is real, of either sign — no rule.
   A term whose pole sits where {!Realisation.poles} puts infinity
   counts as λ = 0: a constant or s·R term, positive real. Roundoff
   leaves such terms with λ a hair below zero on every shipped
   example, and on an RL ladder it is the inductive s·R term *)
let modal_passive (r : Realisation.t) =
  match r.Realisation.form with
  | Realisation.Modal { lambda; _ } -> (
    let at_infinity = Realisation.pole_at_infinity r in
    let every ok = Array.for_all (fun l -> (not (Float.is_nan l)) && (at_infinity l || ok l)) lambda in
    match (r.Realisation.variable, r.Realisation.gain) with
    | Circuit.Mna.S, Circuit.Mna.Unit -> every (fun l -> r.Realisation.origin *. l <= 1.0)
    | Circuit.Mna.S, Circuit.Mna.Times_s -> every (fun l -> l >= 0.0)
    | Circuit.Mna.S_squared, Circuit.Mna.Times_s -> every (fun _ -> true)
    | Circuit.Mna.S_squared, Circuit.Mna.Unit -> false)
  | Realisation.Band _ | Realisation.Hess _ -> false

let run ?ctx ?drift_band ?(shift_requested = false) model (mna : Circuit.Mna.t) =
  Obs.with_span "certify.run" @@ fun () ->
  let tol = 1e-9 in
  let eng = Rom.engine_of_model model and r = Rom.realisation model in
  let engine = Rom.name eng in
  let np = Realisation.ports r in
  let findings = ref [] in
  let emit d = findings := d :: !findings in
  (* -------- MOD002 then MOD001: the structural findings -------- *)
  List.iter emit (structural model mna);
  (* -------- MOD003/MOD007: the modal rule, else Hamiltonian bands -------- *)
  let verdict =
    Obs.with_span "certify.hamiltonian" @@ fun () ->
    if modal_passive r then `Modal
    else
      (* the pencil gives the crossings; the samples in between are
         read off the model's own evaluation form *)
      match H.violation_bands ~tol ~eval:(Realisation.eval r) (Realisation.phys_pencil r) with
      | bs -> `Bands bs
      | exception Linalg.Eig_sym.No_convergence -> `Incomplete
  in
  (match verdict with
  | `Modal ->
    emit
      (D.info "MOD003"
         (Printf.sprintf
            "%s: modal form is nonnegative term by term on the whole imaginary \
             axis (PSD residues, every term's real part >= 0) — no Hamiltonian \
             test needed"
            engine))
  | `Incomplete ->
    emit
      (D.warning "MOD003"
         (Printf.sprintf
            "%s: Hamiltonian test did not complete — the Hermitian eigensolver \
             did not converge on a sample of Re Z(jw); passivity is not certified"
            engine))
  | `Bands [] ->
    emit
      (D.info "MOD003"
         (Printf.sprintf
            "%s: Hamiltonian test found no passivity violation on the whole \
             imaginary axis (tol %.1e)"
            engine tol))
  | `Bands bs ->
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
     the J = I path). The band test reads only the pencil, so it takes
     the leading k×k blocks of the core (fold is entrywise, so they are
     the core of the truncated model) with no evaluation form built *)
  let safe_order =
    match (model, verdict) with
    | Rom.Sympvl_model m, `Bands (_ :: _) ->
      let core = Realisation.core m.Model.real in
      let rec search k attempts =
        if k < 1 || attempts <= 0 then None
        else begin
          let lead =
            {
              H.a0 = Mat.submatrix core.H.a0 0 0 k k;
              a1 = Mat.submatrix core.H.a1 0 0 k k;
              b = Mat.submatrix core.H.b 0 0 k core.H.b.Mat.cols;
              c = Mat.submatrix core.H.c 0 0 core.H.c.Mat.rows k;
            }
          in
          match H.violation_bands ~tol (Realisation.augment r lead) with
          | [] -> Some k
          | _ -> search (k - 1) (attempts - 1)
          | exception Linalg.Eig_sym.No_convergence -> None
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
   if np > 1 then begin
     let wsc = core_freq_scale r in
     let worst = ref 0.0 in
     List.iter
       (fun mult ->
         (* a sample on a pole, or one whose Z is not finite, is skipped *)
         match Realisation.eval r (Cx.im (mult *. wsc)) with
         | exception Cmat.Singular _ -> ()
         | z ->
           let scale = Cmat.max_abs z in
           if Float.is_finite scale then
             worst :=
               Float.max !worst
                 (Cmat.dist_max z (Cmat.transpose z) /. Float.max scale 1e-300))
       scale_samples;
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
   (* the exact zeroth moment at s = 0, when MOD005 computed it *)
   let dc_moment = ref None in
   (* -------- MOD005: moment matching -------- *)
   let mom_rtol = 1e-6 in
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
       let exact = Moments.exact ?ctx ~shift:r.Realisation.shift mna q in
       if r.Realisation.shift = 0.0 then dc_moment := Some exact.(0);
       let got = Realisation.moments r q in
       (exact, got)
     with
     | exact, got ->
       let j = ref 0 in
       (try
          for k = 0 to q - 1 do
            if rel_dist_mat got.(k) exact.(k) <= mom_rtol then incr j
            else raise Exit
          done
        with Exit -> ());
       if !j >= q then
         emit
           (D.info "MOD005"
              (Printf.sprintf
                 "%s: matches the first %d moment(s) at s0 = %.3g to rtol %.0e \
                  (%d promised)"
                 engine !j r.Realisation.shift mom_rtol expected))
       else
         emit
           (D.warning "MOD005"
              (Printf.sprintf
                 "%s: only %d of the first %d moment(s) match at s0 = %.3g \
                  (rtol %.0e) — the Pade property is not holding numerically"
                 engine !j q r.Realisation.shift mom_rtol))
     | exception (Factor.Singular _ | Linalg.Lu.Singular _) ->
       emit
         (D.info "MOD005"
            (Printf.sprintf
               "%s: pencil singular at the expansion point — moment check skipped"
               engine))
   end;
   (* -------- MOD006: DC exactness (gain-free cores on both sides) ---- *)
   (match
      let exact0 =
        match !dc_moment with
        | Some m0 -> m0
        | None -> (Moments.exact ?ctx ~shift:0.0 mna 1).(0)
      in
      let core = Realisation.core r in
      let z0 = Linalg.Lu.solve_mat (Linalg.Lu.factor core.H.a0) core.H.b in
      (exact0, Mat.mul core.H.c z0)
    with
   | exact0, got0 ->
     (* the golden/MOD009 metric: the denominator is floored at 1e-3
        of the model's own |Z| scale, so a port whose DC value is
        zero (shorted by an inductor) is judged by its absolute
        error, not by roundoff over roundoff *)
     let rel =
       rel_dist_mat ~floor:(Float.max (1e-3 *. gain_free_scale r) 1e-300) got0 exact0
     in
     if rel <= 1e-6 then
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
  if r.Realisation.shift <> 0.0 then begin
    let mk = if shift_requested && mna.Circuit.Mna.spd then D.warning else D.info in
    emit
      (mk "MOD008"
         (Printf.sprintf
            "%s: expansion point s0 = %.3g is outside the certified regime — \
             the structural passivity theorem needs the definite pencil at \
             s0 = 0%s"
            engine r.Realisation.shift
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
    (* the exact Z(jω) of the full pencil, through the same entry point
       as Simulate.Ac; a lossless (LC) pencil is exactly singular at its
       resonances — a sample that lands on one is dropped, not an error.
       Any other pencil's zero pivot is a breakdown of the unpivoted jω
       factor, reported below with the unknown it met *)
    let exacts =
      Array.init k (fun i ->
          match Pencil.z_at ctx (Cx.im (w_of i)) with
          | z -> Ok z
          | exception Factor.Singular row -> Error row)
    in
    let failed =
      Array.fold_right (fun z acc -> match z with Error row -> row :: acc | Ok _ -> acc) exacts []
    in
    let lossless = mna.Circuit.Mna.variable = Circuit.Mna.S_squared in
    (* same error metric as the golden fixtures: the denominator is
       floored at 1e-3 of the sweep-wide |Z| scale, so a deep null in
       one sample cannot blow up the relative error *)
    let zsweep =
      Array.fold_left
        (fun acc z ->
          match z with Ok z -> Float.max acc (Cmat.max_abs z) | Error _ -> acc)
        1e-300 exacts
    in
    let worst = ref 0.0 and used = ref 0 in
    Array.iteri
      (fun i exact ->
        match exact with
        | Error _ -> ()
        | Ok exact ->
          incr used;
          let got = Realisation.eval r (Cx.im (w_of i)) in
          let err =
            Cmat.dist_max got exact
            /. Float.max (Cmat.max_abs exact) (1e-3 *. zsweep)
          in
          worst := Float.max !worst err)
      exacts;
    let rtol = Rom.golden_rtol eng in
    (match failed with
    | row :: _ when not lossless ->
      emit
        (D.warning "MOD009"
           (Printf.sprintf
              "%s: %d of %d drift samples met a zero pivot in the exact jω factor \
               at %s — %s"
              engine (List.length failed) k
              (Circuit.Mna.unknown_label mna row)
              (if !used = 0 then "check skipped" else "drift checked on the others")))
    | _ -> ());
    if !used > 0 && !worst <= rtol then
      emit
        (D.info "MOD009"
           (Printf.sprintf
              "%s: drift vs the exact transfer function %.2e over %d sample(s) \
               (within the documented %.0e)"
              engine !worst !used rtol))
    else if !used > 0 then
      emit
        (D.warning "MOD009"
           (Printf.sprintf
              "%s: drift %.2e vs the exact transfer function exceeds the \
               documented %.0e — the model has left its validated regime"
              engine !worst rtol))
    else if lossless then
      emit
        (D.info "MOD009"
           (Printf.sprintf
              "%s: every drift sample landed on a singular pencil (lossless \
               resonances) — check skipped"
              engine)));
  (* -------- MOD010: backward residual of the model's real factor ---- *)
  (match ctx with
  | None -> ()
  | Some ctx -> (
    (* solve K(s₀)x = b through the factor the reduction used (memoised
       at the model's shift, as MOD005 read it) and measure
       ‖K x − b‖∞ against ‖K‖·‖x‖ + ‖b‖ — an end-to-end check of the
       ordering, the scatter and the numeric factor *)
    let s0 = r.Realisation.shift and rtol = 1e-7 in
    match Pencil.factor ctx ~shift:s0 with
    | fac ->
      let g = Pencil.g ctx and c = Pencil.c ctx in
      let b = Array.init (Pencil.n ctx) (fun i -> 1.0 +. float_of_int (i mod 3)) in
      let x = Linalg.Vec.create (Pencil.n ctx) in
      fac.Factor.solve (Linalg.Vec.copy b) x;
      let gx = Sparse.Csr.mul_vec g x and cx = Sparse.Csr.mul_vec c x in
      let resid =
        Linalg.Vec.norm_inf (Array.mapi (fun i bi -> gx.(i) +. (s0 *. cx.(i)) -. bi) b)
      in
      let entry a = Linalg.Vec.norm_inf a.Sparse.Csr.values in
      let kscale = entry g +. (Float.abs s0 *. entry c) in
      let rel =
        resid /. Float.max ((kscale *. Linalg.Vec.norm_inf x) +. Linalg.Vec.norm_inf b) 1e-300
      in
      if rel <= rtol then
        emit
          (D.info "MOD010"
             (Printf.sprintf "%s: factor-solve residual %.3e at s0 = %.3g (tol %.0e)" engine
                rel s0 rtol))
      else
        emit
          (D.warning "MOD010"
             (Printf.sprintf
                "%s: factor-solve residual |K(s0)x - b|/(|K||x| + |b|) = %.3e at s0 = %.3g \
                 exceeds %.0e — the factor the model was built from is inaccurate \
                 (ill-conditioned pencil; try another shift)"
                engine rel s0 rtol))
    | exception Factor.Singular _ ->
      emit
        (D.info "MOD010"
           (Printf.sprintf
              "%s: pencil singular at the expansion point — residual probe skipped" engine))));
  let bands = match verdict with `Bands bs -> bs | `Modal | `Incomplete -> [] in
  { findings = D.sort (List.rev !findings); bands; safe_order }
