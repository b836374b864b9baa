(** The one descriptor form every reduced model is stored in.

    Every engine's output is a small descriptor system (the paper's
    eq. (23); Freund's structure-preserving line shows every congruence
    engine's output has the same shape):

      [Z(var) = gain · c·(a0 + (var − origin)·a1)⁻¹·b]

    with [var = s] or [s²] and [gain = 1] or [s]. The σ-forms (SyMPVL
    [a0 = I, a1 = T, c = ρᵀΔ], MPVL [c = ηᵀ, b = D⁻¹μ], AWE's modal
    form) keep [origin = s₀]; the congruence forms (PRIMA, SPRIM, BT:
    [a0 = Ĝ, a1 = Ĉ, c = B̂ᵀ]) live in the pencil variable itself,
    [origin = 0]. Each engine builds its realisation once, at reduce
    time; {!eval}, {!poles}, {!moments} and the certification pass all
    read it. *)

type modal = {
  lambda : float array;  (** [λₖ], ascending. *)
  w : Linalg.Mat.t;  (** [nx×p] residues: row [k] is [Wₖ]. *)
}
(** The pole–residue form of a definite symmetric realisation:
    [Z(σ) = gain·Σₖ WₖᵀWₖ / (1 + σλₖ)] with [σ = var − origin]. *)

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
          admits one (SyMPVL [Δ]-congruence, MPVL [Λ]-rescaling,
          PRIMA/SPRIM/BT directly). [None] means "no structural
          certificate available", not "non-passive". *)
  foster : (Complex.t array * Complex.t array) option;
      (** AWE only: poles in [σ = var − origin] and their residues.
          {!eval} sums this scalar pole–residue form; [a0]/[a1]/[b]/[c]
          hold its modal realisation. *)
  definite : bool;
      (** The construction promised a definite symmetric form
          (SyMPVL's [J = I] unshifted path, BT): an indefinite one is
          then a violated theorem, not merely an absent certificate. *)
  modal : modal option;
      (** {!modal_form} of the symmetric triple, built once at reduce
          time: SyMPVL's [J = I] path at any shift (from
          [(Δ, ΔT, Δρ)] about [s₀]) and BT (from [(Â, I, B̂)]).
          [None] for every other realisation. Immutable after the
          build, so models are shared across domains as they are. *)
}

val order : t -> int
(** State dimension ([order] poles for AWE). *)

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
    [(g, c, b)] when both are symmetric (always when [definite]), and
    [modal = modal_form ~k0:g ~k1:c ~w:b] when [definite]. *)

val eval : t -> Complex.t -> Linalg.Cmat.t
(** [Ẑ(s)] at a physical complex frequency, a [p×p] matrix ([1×1] for
    AWE). With a {!modal} form: [O(nx·p²)], one complex reciprocal per
    term and the upper triangle of [Σ wᵢwⱼ·cₖ] mirrored, so [Ẑ] is
    exactly symmetric. AWE: its scalar pole–residue sum. Otherwise one
    dense complex LU of [a0 + σ·a1], [O(nx³)].
    @raise Linalg.Cmat.Singular at a pole: a zero LU pivot, or an
    exactly zero [1 + σλₖ] (raised with [k]). *)

val core : t -> Linalg.Hamiltonian.pencil
(** [c·(g0 + var·a1)⁻¹·b] with [g0 = fold ~origin a0 a1]: the pencil
    in [var], gain not applied. *)

val freq_scale : t -> float
(** [‖g0‖/‖a1‖] of {!core} (max norms; 1 when either vanishes): the
    model's natural scale in the pencil variable. *)

val phys_pencil : t -> Linalg.Hamiltonian.pencil
(** {!core} with the variable and gain folded in by
    {!Linalg.Hamiltonian.augment}, so [Z(s)] needs no substitution or
    post-scaling. *)

val poles : t -> Complex.t array
(** Finite physical poles: [origin − 1/λₖ] of the {!modal} form
    (ascending [λₖ]), else the finite generalized eigenvalues of
    {!core} (pre-scaled by {!freq_scale}). Either way poles beyond
    [1e8] scaled units are dropped as poles at infinity, and each pole
    in [var] is mapped to [±√var] for the [s²] variable. *)

val moments : t -> int -> Linalg.Mat.t array
(** First [q] moments about [shift]:
    [m_k = (−1)ᵏ·c·(K⁻¹a1)ᵏ·K⁻¹·b] with [K = g0 + shift·a1]. *)

val truncate : t -> int -> t
(** Leading [k×k] blocks (and the matching rows/columns of [b], [c]
    and the symmetric form), [modal = None]: the cheap form for a
    check that needs only {!phys_pencil}. Sound where the engine's
    basis is nested, e.g. at SyMPVL cluster boundaries; not for AWE.
    {!Model.truncate} rebuilds the modal form. *)
