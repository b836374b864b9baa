(** The one descriptor form every reduced model is stored in.

    Every engine's output is a small descriptor system (the paper's
    eq. (23); Freund's structure-preserving line shows every congruence
    engine's output has the same shape):

      [Z(var) = gain · c·(a0 + (var − origin)·a1)⁻¹·b]

    with [var = s] or [s²] and [gain = 1] or [s]. The σ-forms (SyMPVL
    [a0 = I, a1 = T, c = ρᵀΔ]; the MPVL baseline's [c = ηᵀ, b = D⁻¹μ])
    keep [origin = s₀]; the congruence forms (PRIMA, SPRIM, BT:
    [a0 = Ĝ, a1 = Ĉ, c = B̂ᵀ]) live in the pencil variable itself,
    [origin = 0]. Each engine builds its realisation once, at reduce
    time, together with exactly one evaluation {!form}: the modal form
    of a definite model, the band of SyMPVL's indefinite [T], or the
    Hessenberg–triangular form of every other one. {!eval},
    {!poles}, {!moments} and the certification pass all read it. *)

type modal = {
  lambda : float array;  (** [λₖ], ascending. *)
  w : Linalg.Mat.t;  (** [nx×p] residues: row [k] is [Wₖ]. *)
}
(** The pole–residue form of a definite symmetric realisation:
    [Z(σ) = gain·Σₖ WₖᵀWₖ / (1 + σλₖ)] with [σ = var − origin]. *)

type band
(** A banded pencil [kc·(k0 + σ·k1)⁻¹·kb] whose [k0 + σ·k1] is zero
    below its [p]-th subdiagonal for every [σ]: a band-Lanczos [T]. *)

type hess
(** Laub's frequency-response form of a general pencil [(a0, a1, b, c)]:
    a diagonal [D] of powers of two balances it (so the balancing
    itself is exact), and a Householder QR of one coefficient and
    Givens rotations (Golub & Van Loan, Algorithm 7.7.1) reduce
    [Qᵀ·D·a0·D·Z] and [Qᵀ·D·a1·D·Z] to one upper triangular and one
    upper Hessenberg matrix, carrying [Qᵀ·D·b], [c·D·Z] and the maps
    [Qᵀ·D] and [D·Z] between the form's coordinates and the pencil's.
    It holds two such reductions: the one with [a0] triangular serves
    [|σ| ≤ ‖a0‖/‖a1‖] (max norms), the one with [a1] triangular the
    points above, so the coefficient that dominates a point is the one
    that came through the reduction column by column. *)

(** The one evaluation form of a realisation, built at reduce time.
    Immutable, so models are shared across domains as they are. *)
type form =
  | Modal of modal
      (** {!modal_form} of a definite symmetric triple: SyMPVL's
          [J = I] path at any shift (from [(Δ, ΔT, Δρ)] about [s₀])
          and BT (from [(Â, I, B̂)]). *)
  | Band of band
      (** [(a0, a1, b, c)] as they are, when no nonzero of [a0] or
          [a1] lies more than [p] rows below the diagonal (SyMPVL with
          [J ≠ I]): the elimination then costs no more than the solve,
          and its pivots and rounding are a dense LU's. *)
  | Hess of hess
      (** Every other realisation: PRIMA, SPRIM, MPVL, and a definite
          triple whose Cholesky factor broke down. *)

type t = {
  a0 : Linalg.Mat.t;  (** nx×nx. *)
  a1 : Linalg.Mat.t;  (** nx×nx. *)
  b : Linalg.Mat.t;  (** nx×p input map. *)
  c : Linalg.Mat.t;  (** p×nx output map. *)
  origin : float;  (** Where [a0 + (var − origin)·a1] is expanded. *)
  shift : float;  (** The engine's expansion point [s₀] ([0] for BT). *)
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
  sym : (Linalg.Mat.t * Linalg.Mat.t * Linalg.Mat.t) option;
      (** A symmetric form [(h0, h1, w)] with [Z = gain·wᵀ(h0 + var·h1)⁻¹w]
          in the physical pencil variable, when the engine's structure
          admits one (SyMPVL [Δ]-congruence, PRIMA/SPRIM/BT
          directly). [None] means "no structural
          certificate available", not "non-passive". *)
  definite : bool;
      (** The construction promised a definite symmetric form
          (SyMPVL's [J = I] unshifted path, BT): an indefinite one is
          then a violated theorem, not merely an absent certificate. *)
  form : form;
}

val order : t -> int
(** State dimension. *)

val ports : t -> int

val near_symmetric : Linalg.Mat.t -> bool
(** Symmetric to [1e-8] — the tolerance every symmetric-form recovery
    uses. *)

val fold : origin:float -> Linalg.Mat.t -> Linalg.Mat.t -> Linalg.Mat.t
(** [fold ~origin k a1] is [k − origin·a1] ([k] itself at origin 0):
    moves the expansion point into the constant coefficient. *)

val modal_form :
  k0:Linalg.Mat.t -> k1:Linalg.Mat.t -> w:Linalg.Mat.t -> modal option
(** [modal_form ~k0 ~k1 ~w] diagonalises [wᵀ(k0 + σ·k1)⁻¹w] for a
    symmetric [k0 ≻ 0] and symmetric [k1]: Cholesky [k0 = LLᵀ],
    [L⁻¹k1L⁻ᵀ = QΛQᵀ] by {!Linalg.Eig_sym.decompose}, [W = QᵀL⁻¹w].
    One [O(nx³)] decomposition. [None] when the Cholesky factor breaks
    down. *)

val general_form : a0:Linalg.Mat.t -> a1:Linalg.Mat.t -> b:Linalg.Mat.t -> c:Linalg.Mat.t -> form
(** The form of a realisation with no modal one: {!Band} when the
    lower bandwidth of [a0] and [a1] is at most [p], else {!Hess}
    (two [O(nx³)] reductions). *)

val congruence :
  ?definite:bool ->
  shift:float ->
  variable:Circuit.Mna.variable ->
  gain:Circuit.Mna.gain ->
  Linalg.Mat.t ->
  Linalg.Mat.t ->
  Linalg.Mat.t ->
  t
(** [congruence ~shift ~variable ~gain g c b] is the realisation
    [bᵀ(g + var·c)⁻¹b] of a congruence projection, symmetric form
    [(g, c, b)] when both are symmetric (always when [definite]),
    and form {!Modal} [(modal_form ~k0:g ~k1:c ~w:b)] when [definite]
    (unless its Cholesky factor breaks down), else {!general_form}. *)

val eval : t -> Complex.t -> Linalg.Cmat.t
(** [Ẑ(s)] at a physical complex frequency, a [p×p] matrix, read off
    the realisation's one evaluation form:
    - {!Modal}: [O(nx·p²)], one complex reciprocal per term and the
      upper triangle of [Σ wᵢwⱼ·cₖ] mirrored, so [Ẑ] is exactly
      symmetric;
    - {!Band}: [(a0 + σ·a1)X = b] by banded elimination with partial
      pivoting among rows [k … k + p] (the first of largest modulus),
      then [c·X]: [O(nx²·p)];
    - {!Hess}: the same elimination on the reduction that serves [σ]
      (adjacent-row pivoting) gives [X̃], and [X = D·Z·X̃]; then one
      step of iterative refinement against the unreduced pencil: the
      residual [R = b − (a0 + σ·a1)·X] is solved on the reduction
      again, giving [Ẑ = c·X + c·D·Z·R̃] with [R̃] the reduced
      pencil's solution for [Qᵀ·D·R]. The reduction is backward stable
      only normwise; the refinement brings a graded pencil (states
      decades apart) back to a dense LU's accuracy. [O(nx²·p)].
    No [nx×nx] block is allocated per point: each row of the shifted
    pencil is its own split array.
    @raise Linalg.Cmat.Singular at a pole: an exactly zero
    [1 + σλₖ] of the modal form, or an exactly zero pivot of the
    elimination (both raised with [k]). *)

val core : t -> Linalg.Hamiltonian.pencil
(** [c·(g0 + var·a1)⁻¹·b] with [g0 = fold ~origin a0 a1]: the pencil
    in [var], gain not applied. *)

val freq_scale : t -> float
(** [‖g0‖/‖a1‖] of {!core} (max norms; 1 when either vanishes): the
    model's natural scale in the pencil variable. *)

val augment : t -> Linalg.Hamiltonian.pencil -> Linalg.Hamiltonian.pencil
(** [augment r pen] folds [r]'s variable and gain into a pencil in
    [var] by {!Linalg.Hamiltonian.augment}, so its [Z(s)] needs no
    substitution or post-scaling. The auxiliary states are scaled by
    [pen]'s frequency scale ([|g0|/|a1|], its square root for
    [var = s²]), so the augmented pencil keeps that scale in physical
    [s]: its crossing search and probes sit at the model's frequencies,
    not at 1. *)

val phys_pencil : t -> Linalg.Hamiltonian.pencil
(** [augment r (core r)]. *)

val pole_at_infinity : t -> float -> bool
(** [pole_at_infinity r] is the cutoff {!poles} applies to a {!modal}
    term: [pole_at_infinity r λ] when the term's pole [origin − 1/λ]
    in [var] is not within [1e8·freq_scale r] (so also for [λ = 0],
    and for a NaN [λ]) —
    the infinity a singular [a1] produces, seen through roundoff.
    Partial application computes the scale once. *)

val poles : t -> Complex.t array
(** Finite physical poles: [origin − 1/λₖ] of the {!modal} form
    (ascending [λₖ]), else the finite generalized eigenvalues of
    {!core} (pre-scaled by {!freq_scale}). Either way poles beyond
    [1e8] scaled units are dropped as poles at infinity, and each pole
    in [var] is mapped to [±√var] for the [s²] variable. *)

val moments : t -> int -> Linalg.Mat.t array
(** First [q] moments about [shift]:
    [m_k = (−1)ᵏ·c·(K⁻¹a1)ᵏ·K⁻¹·b] with [K = g0 + shift·a1]. *)
