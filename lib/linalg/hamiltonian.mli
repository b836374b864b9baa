(** Imaginary-axis passivity analysis of descriptor realisations.

    A reduced-order model in this codebase is, uniformly, a transfer
    function [Z(s) = C (A0 + s·A1)⁻¹ B] over a small dense descriptor
    pencil (every engine stores its model as one — see
    [Sympvl.Realisation]). Grid-sampling
    [λmin((Z(jω) + Z(jω)ᴴ)/2)] can miss a narrow passivity violation
    between two samples; the classical Hamiltonian eigenvalue test
    (Boyd–Balakrishnan–Kabamba) locates every level crossing {e
    exactly} instead: [jω] is a crossing of
    [λ(Herm Z(jω)) = γ] if and only if it is a generalized eigenvalue
    of the structured pencil

    {[ M = [ A0 + B·S⁻¹·C     B·S⁻¹·Bᵀ      ]     N = [ −A1   0  ]
             [ Cᵀ·S⁻¹·C       A0ᵀ + Cᵀ·S⁻¹·Bᵀ ],        [ 0    A1ᵀ ] ]}

    with [S = D + Dᵀ − 2γI] ([D = 0] throughout this library, so [S]
    is a positive multiple of the identity for the sub-zero levels
    [γ < 0] used here). The pencil formulation — rather than the
    textbook Hamiltonian {e matrix} — is what makes the test uniform:
    it tolerates a singular [A1], which arises whenever an RL / LC
    gain or variable mapping is folded in by {!augment}.

    Everything here is dense [Eig_gen]-sized: realisations are reduced
    models of order ≲ 100, so the 2n×2n eigenproblem is microseconds,
    not a bottleneck. *)

type pencil = {
  a0 : Mat.t;  (** n×n *)
  a1 : Mat.t;  (** n×n; may be singular *)
  b : Mat.t;  (** n×p input map *)
  c : Mat.t;  (** p×n output map *)
}
(** [Z(s) = c (a0 + s·a1)⁻¹ b] — physical frequency variable, no
    implicit gain or shift. *)

val augment : square_var:bool -> times_s:bool -> pencil -> pencil
(** Fold the MNA variable/gain conventions into the pencil so that
    evaluation in the {e physical} [s] needs no post-scaling:
    [square_var] maps a pencil in [var = s²] (LC class), [times_s] a
    [Z = s·Z_core] gain (RL / LC class). With both flags false the
    pencil is returned unchanged; otherwise the state doubles
    (auxiliary states [x₂ = s·x]), preserving the finite spectrum. *)

val eval : pencil -> Complex.t -> Cmat.t
(** [Z(s)] as a dense p×p complex matrix.
    @raise Cmat.Singular if [a0 + s·a1] is singular at [s]. *)

val herm_min_eig : pencil -> float -> (float * float) option
(** [herm_min_eig pen ω] is [Some (λmin, scale)] with
    [λmin = min eig ((Z + Zᴴ)/2)] at [s = jω] and
    [scale = max |Z_ij|], or [None] when the pencil is singular at
    [jω] (a pole on the axis). *)

val gen_eigenvalues : ?seeds:float array -> Mat.t -> Mat.t -> Complex.t array
(** Finite generalized eigenvalues [s] of [det(a + s·b) = 0], via
    real shift-and-invert through {!Lu} and {!Eig_gen}: the first
    seed [μ] with [a + μb] nonsingular (and a converging QR
    iteration) is used, and every [θ ≠ 0] eigenvalue of
    [(a + μb)⁻¹ b] maps back to [s = μ − 1/θ]. Eigenvalues pushed to
    infinity by a singular [b] ([θ ≈ 0]) are dropped. Returns [[||]]
    when every seed fails. Seeds are in the caller's frequency units
    — pre-scale the pencil (as {!crossings} does) so O(1) seeds make
    sense. *)

val crossings : ?rtol:float -> level:float -> pencil -> float array
(** Exact positive crossing frequencies [ω] where some eigenvalue of
    [Herm Z(jω)] equals [level] ([level < 0]; [S = −2·level·I]):
    sorted, deduplicated imaginary parts of the near-imaginary
    generalized eigenvalues of the Hamiltonian pencil above. [rtol]
    (default [1e-4]) is the relative real-part filter — generous on
    purpose: a spurious boundary only adds a candidate interval for
    the caller to classify, while a missed one hides a band. *)

type band = {
  w_lo : float;  (** lower edge, rad/s (0 when the band reaches DC) *)
  w_hi : float;  (** upper edge, rad/s ([infinity] when unbounded) *)
  w_worst : float;  (** frequency of the deepest violation found *)
  lambda_min : float;  (** [λmin(Herm Z)] at [w_worst] *)
  scale : float;  (** the [max |Z_ij|] scale [lambda_min] is relative to *)
}

val violation_bands :
  ?tol:float -> ?eval:(Complex.t -> Cmat.t) -> pencil -> band list
(** Locate every frequency band where [Herm Z(jω)] has an eigenvalue
    below [−tol·scale] (default [tol = 1e-9], [scale] = the largest
    [|Z|] seen over a decade probe sweep): {!crossings} gives the
    exact candidate interval boundaries, each interval is classified
    by [λmin] at interior points, adjacent violating intervals are
    merged, and each band's worst point is refined by a log-spaced
    interior sweep (a band covering the whole axis around the pencil's
    frequency scale). Returns [[]] when the model is passive to
    tolerance on the whole axis. [eval] evaluates [Z(s)] at the probe,
    classification and refinement samples (default {!eval} on [pen],
    a dense complex LU of the pencil per sample): pass a cheaper form
    of the same transfer function, e.g. a reduced model's own
    evaluation form; the crossings still come from [pen]. An [eval]
    signals a pole on the axis by raising [Cmat.Singular]. Sample points whose [Z] is not finite
    are skipped; raises {!Eig_sym.No_convergence} if the Hermitian
    eigensolver fails on a finite [Z]. *)
