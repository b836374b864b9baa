(** Engine-uniform certification of reduced models — the MOD rule
    family.

    The paper's selling point (Section 5) is that matrix-Padé
    reduction of passive circuits yields {e provably} stable, passive
    reduced models. This pass turns that claim into a checkable
    static-analysis report over {e any} {!Rom.model}: every engine's
    native data is first mapped through one adapter
    ({!state_space}) onto the uniform descriptor realisation

      [Z(var) = cout·(g0 + var·g1)⁻¹·bin]

    (expansion shift already folded into [g0]; [var]/gain conventions
    carried alongside), and every rule below is then evaluated on that
    one form — BT/AWE/PRIMA/MPVL get exactly the same scrutiny as
    SyMPVL.

    Rules (stable codes, shared {!Circuit.Diagnostic} type):
    - {b MOD001} pole stability: every finite pole of the physical
      pencil in the closed left half-plane. An unstable pole is an
      [Error] when the structural theorem (MOD002) promised stability,
      a [Warning] otherwise.
    - {b MOD002} structural passivity certificate: symmetric-form
      recovery + positive semidefiniteness (for SyMPVL on the [J = I]
      unshifted path this is the paper's [Tₙ ⪰ 0] certificate; AWE gets
      a Foster positive-real check on its pole/residue form instead).
    - {b MOD003} Hamiltonian imaginary-axis eigenvalue test
      ({!Linalg.Hamiltonian.violation_bands}): locates passivity
      violation {e bands} exactly instead of grid sampling.
    - {b MOD004} reciprocity: sampled [‖Z − Zᵀ‖/‖Z‖] residual.
    - {b MOD005} moment matching: leading moments of the realisation
      vs {!Moments.exact} on the shared pencil context, against the
      count {!Rom.expected_moments} promises.
    - {b MOD006} DC exactness: [Z_core(0)] vs the exact zeroth moment
      at shift 0 (skipped when [G] is singular at DC).
    - {b MOD007} violation-band report: one finding per MOD003 band,
      plus a suggested safe (passive) truncation order when the
      engine supports truncation.
    - {b MOD008} shift outside the certified regime: a nonzero
      expansion point forfeits the structural certificate of the
      definite unshifted path.
    - {b MOD009} model-vs-exact drift: sampled relative deviation
      from the exact MNA transfer function against the engine's
      documented {!Rom.golden_rtol}.

    Emitted through [symor certify] / [symor reduce --certify] / the
    serve [certify] op (all through {!request}) with the same
    [--json] / [--strict] / exit-code contract as [symor lint] and
    [symor analyze]; [symor reduce] prints the MOD002/MOD001 pair
    ({!structural}) for every model it builds. *)

type realisation = {
  engine : Rom.engine;
  g0 : Linalg.Mat.t;  (** nx×nx; the expansion shift is folded in. *)
  g1 : Linalg.Mat.t;  (** nx×nx. *)
  bin : Linalg.Mat.t;  (** nx×p input map. *)
  cout : Linalg.Mat.t;  (** p×nx output map. *)
  nx : int;
  np : int;  (** Ports of the realisation (1 for AWE). *)
  shift : float;  (** Expansion point [s₀] (metadata — already folded). *)
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
  sym : (Linalg.Mat.t * Linalg.Mat.t * Linalg.Mat.t) option;
      (** Recovered symmetric form [(h0, h1, w)] with
          [Z = wᵀ(h0 + var·h1)⁻¹w], when the engine's structure
          admits one (SyMPVL [Δ]-congruence, MPVL [Λ]-rescaling,
          PRIMA/BT directly). [None] means "no structural certificate
          available", not "non-passive". *)
  foster : (Complex.t array * Complex.t array) option;
      (** AWE only: physical-[s] poles and residues for the Foster
          positive-real certificate. *)
  definite : bool;
      (** The construction {e promised} a definite symmetric form
          (SyMPVL's [J = I] unshifted path, BT) — an indefinite
          recovery is then a violated theorem, not merely an absent
          certificate. *)
}

val state_space : Rom.model -> realisation
(** The one adapter every engine goes through. The realisation
    reproduces [Rom.eval] exactly (up to roundoff of the explicit
    solve) — asserted by the cross-engine test through
    [Linalg.Hamiltonian.eval] on {!phys_pencil}. *)

val phys_pencil : realisation -> Linalg.Hamiltonian.pencil
(** The physical-frequency descriptor pencil:
    {!Linalg.Hamiltonian.augment} applied to the core realisation so
    that [Z(s)] needs no variable substitution or gain post-scaling. *)

type certificate =
  | Certified of string  (** Proof sketch (which matrices are PSD / Foster). *)
  | Violated of string * float
      (** The structure that should certify is numerically indefinite;
          carries the scaled minimum eigenvalue (or Foster residual). *)
  | No_certificate of string  (** Why no structural argument applies. *)

val structural_certificate : ?tol:float -> ?definite:bool -> realisation -> certificate
(** MOD002's verdict (default [tol = 1e-9], relative to each
    matrix's magnitude). [definite] overrides the
    realisation's own promise flag — {!run} passes [mna.spd] for
    PRIMA, whose congruence inherits semidefiniteness from the source
    pencil. *)

val structural : realisation -> Circuit.Mna.t -> Circuit.Diagnostic.t list
(** The stability/passivity findings, MOD002 then MOD001: the
    structural certificate, then every finite pole of {!phys_pencil}
    checked against the closed left half-plane. An unstable pole is an
    [Error] when the certificate promised stability, and a violated
    certificate on SyMPVL's definite unshifted path is an [Error] (the
    paper's Theorem 5.1); [mna] supplies PRIMA's promise (an SPD
    source pencil). {!run} opens with exactly these two findings. *)

type report = {
  findings : Circuit.Diagnostic.t list;  (** Sorted, codes MOD001–MOD009. *)
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
    model (moment and drift checks then cost only triangular solves;
    MOD009 is skipped without it). The stability/passivity thresholds
    are relative [1e-9]; MOD009 samples 4 points of [drift_band] in Hz
    (default: two decades around the realisation's own scale);
    [shift_requested] marks an explicitly user-chosen shift (MOD008
    severity). Obs: [certify.run]/[certify.hamiltonian] spans,
    [certify.violation_band] counter. *)

val request_order : Rom.engine -> Circuit.Mna.t -> int -> int
(** The order a certify request reduces to: [0] means the full pencil
    size [n] (every check then a theorem test), or 3 for AWE (its
    documented low-order validity).
    @raise Circuit.Diagnostic.User_error on a negative order. *)

val request :
  ctx:Pencil.t ->
  ?shift:float ->
  ?band:float * float ->
  Rom.model ->
  Circuit.Mna.t ->
  report
(** {!run} as [symor certify], [symor reduce --certify] and the serve
    [certify] op all call it: [ctx] built the model, with the [shift]
    and [band] it was asked for. The MOD009 drift band is [band], else
    1e6–1e10 Hz for AWE; a given [shift] counts as user-chosen
    (MOD008). *)
