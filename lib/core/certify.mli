(** Engine-uniform certification of reduced models — the MOD rule
    family.

    The paper's selling point (Section 5) is that matrix-Padé
    reduction of passive circuits yields {e provably} stable, passive
    reduced models. This pass turns that claim into a checkable
    static-analysis report over {e any} {!Rom.model}: every engine
    stores its model as the one descriptor form {!Realisation.t}
    ({!Rom.realisation}, built at reduce time), and every rule below
    is evaluated on that one form — BT, PRIMA and SPRIM get exactly the
    same scrutiny as SyMPVL.

    Rules (stable codes, shared {!Circuit.Diagnostic} type):
    - {b MOD001} pole stability: every finite pole
      ({!Realisation.poles}) in the closed left half-plane. An unstable pole is an
      [Error] when the structural theorem (MOD002) promised stability,
      a [Warning] otherwise.
    - {b MOD002} structural passivity certificate: symmetric-form
      recovery + positive semidefiniteness (for SyMPVL on the [J = I]
      unshifted path this is the paper's [Tₙ ⪰ 0] certificate).
    - {b MOD003} passivity on the whole imaginary axis. A {!modal}
      realisation that passes {!modal_passive} is positive real term
      by term, and no pencil is built; any other model goes through
      the Hamiltonian imaginary-axis eigenvalue test
      ({!Linalg.Hamiltonian.violation_bands}), which locates
      passivity violation {e bands} exactly instead of grid sampling.
      Its samples are read off the model's own evaluation form
      ({!Realisation.eval}); the crossings come from the physical
      pencil ({!Realisation.phys_pencil}), which keeps the model's own
      frequency scale also under the RL/LC gain and variable mappings.
    - {b MOD004} reciprocity: sampled [‖Z − Zᵀ‖/‖Z‖] residual.
    - {b MOD005} moment matching: leading moments of the realisation
      vs {!Moments.exact} on the shared pencil context, against the
      count {!Rom.expected_moments} promises.
    - {b MOD006} DC exactness: [Z_core(0)] vs the exact zeroth moment
      at shift 0 (MOD005's own, when the model is unshifted; skipped
      when [G] is singular at DC), relative to [|Z(0)|] floored at
      [1e-3] of the gain-free model's [|Z|] at MOD004's five samples
      — so a port shorted by an inductor, whose exact [Z(0)] is
      roundoff, is judged by its absolute error.
    - {b MOD007} violation-band report: one finding per MOD003 band,
      plus a suggested safe (passive) truncation order when the
      engine supports truncation.
    - {b MOD008} shift outside the certified regime: a nonzero
      expansion point forfeits the structural certificate of the
      definite unshifted path.
    - {b MOD009} model-vs-exact drift: sampled relative deviation
      from the exact MNA transfer function against the engine's
      documented {!Rom.golden_rtol}. A sample whose exact jω factor
      meets a zero pivot is dropped: on the LC form ([σ = s²]) that is
      a resonance (info when every sample is one); on any other pencil
      it is a warning naming the unknown the pivot met.
    - {b MOD010} factor-solve residual: the backward residual
      [‖K(s₀)x − b‖∞ / (‖K‖‖x‖ + ‖b‖)] of the real factor the model was
      built from, read from the shared pencil context at the model's
      shift (warning above [1e-7]; info when that factor is singular).

    Emitted through [symor certify] / [symor reduce --certify] / the
    serve [certify] op (all through [Ops.certify]) with the same
    [--json] / [--strict] / exit-code contract as [symor lint] and
    [symor analyze]; [symor reduce] prints the MOD002/MOD001 pair
    ({!structural}) for every model it builds. *)

type certificate =
  | Certified of string  (** Proof sketch (which matrices are PSD). *)
  | Violated of string * float
      (** The structure that should certify is numerically indefinite;
          carries the scaled minimum eigenvalue. *)
  | No_certificate of string  (** Why no structural argument applies. *)

val structural_certificate : ?tol:float -> ?definite:bool -> Realisation.t -> certificate
(** MOD002's verdict (default [tol = 1e-9], relative to each
    matrix's magnitude). [definite] overrides the
    realisation's own promise flag — {!run} passes [mna.spd] for
    PRIMA, whose congruence inherits semidefiniteness from the source
    pencil. *)

val modal_passive : Realisation.t -> bool
(** MOD003's term-by-term rule. On a {!Realisation.modal} form
    [Z = gain·Σₖ WₖᵀWₖ/(1 + σλₖ)], [σ = var − origin], the Hermitian
    part on the [jω] axis is [Σₖ WₖᵀWₖ·ρₖ(ω)] with PSD residues, so
    the model is passive once every [ρₖ ≥ 0] for all [ω]:
    - variable [s], unit gain: [origin·λₖ ≤ 1];
    - variable [s], [×s] gain: [λₖ ≥ 0];
    - variable [s²], [×s] gain: always (lossless: [Re Z = 0] off the
      poles);
    - variable [s²], unit gain: never ([Z(jω)] is real, of any sign).
    A term whose pole [origin − 1/λₖ] is at infinity by
    {!Realisation.pole_at_infinity} counts as [λₖ = 0] (a constant
    or [s·R] term). [false] on any other form, and on a NaN [λₖ]. *)

val structural : Rom.model -> Circuit.Mna.t -> Circuit.Diagnostic.t list
(** The stability/passivity findings, MOD002 then MOD001: the
    structural certificate, then every finite pole
    ({!Realisation.poles}) checked against the closed left half-plane. An unstable pole is an
    [Error] when the certificate promised stability, and a violated
    certificate on SyMPVL's definite unshifted path is an [Error] (the
    paper's Theorem 5.1); [mna] supplies PRIMA's promise (an SPD
    source pencil). {!run} opens with exactly these two findings. *)

type report = {
  findings : Circuit.Diagnostic.t list;  (** Sorted, codes MOD001–MOD010. *)
  bands : Linalg.Hamiltonian.band list;  (** MOD003 violation bands. *)
  safe_order : int option;
      (** Largest passive truncation order found (SyMPVL only), when
          violation bands exist. *)
}

val run :
  ?ctx:Pencil.t ->
  ?drift_band:float * float ->
  ?shift_requested:bool ->
  Rom.model ->
  Circuit.Mna.t ->
  report
(** Full certification of one reduced model against its source pencil.
    [ctx] shares the factor cache with the reduction that produced the
    model (moment, drift and residual checks then cost only triangular
    solves; MOD009 and MOD010 are skipped without it). The
    stability/passivity thresholds are relative [1e-9]; MOD009 samples
    4 points of [drift_band] in Hz (default: two decades around the
    realisation's own scale);
    [shift_requested] marks an explicitly user-chosen shift (MOD008
    severity). Obs: [certify.run]/[certify.hamiltonian] spans (the
    latter also around the modal decision), [certify.violation_band]
    counter. *)
