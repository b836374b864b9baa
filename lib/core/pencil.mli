(** Shared pencil-solve context: one symbolic phase, one shift policy,
    and the only front door to the sparse factor backends.

    Every engine in the pipeline — SyMPVL/MPVL Lanczos, PRIMA Arnoldi,
    AWE moments, exact moment checks, AC sweeps, transient integration
    — is a loop over solves with the shifted pencil [K(s₀) = G + s₀C].
    A [Pencil.t] is built {e once} from [(G, C, B)] and owns everything
    those loops share:

    - the structural pre-flight (STR001: a pattern with structural
      rank < n is singular for every element value and shift);
    - the {!Factor.plan} backend decision over the merged [G]/[C]
      pattern ({!Circuit.Mna.pencil_pattern}, the one [symor analyze]
      plans on): RCM ordering + skyline envelope below 4 096 unknowns,
      AMD ordering + supernodal panels from there on — on the general
      RLC form constrained to eliminate every inductor current before
      its nodes, an order that cannot break down at a real shift;
    - the backend's shared symbolic phase (both matrices pre-scattered
      into envelope rows or panel slots), so each factorisation —
      real at any shift, or complex at any frequency — is a pure
      numeric phase;
    - a memo table of real factorisations keyed by shift, so a moment
      check after a reduction at the same expansion point costs only
      triangular solves ([pencil.cache_hit]/[pencil.cache_miss]
      counters; [factor.symbolic]/[factor.numeric] spans).

    {!with_auto_shift} is the {e only} implementation of the paper's
    eq. (26) singular→shift retry.

    Failure contract: {!Factor.Singular} [row], with [row] in the
    original coordinates, is the only exception that leaves this
    module — from {!factor}, {!factor_with} and {!factor_complex}
    alike. No backend exception escapes. *)

type t

val create : Circuit.Mna.t -> t
(** Build the context from an assembled pencil: the merged pattern
    (built once), structural pre-flight on it (raises
    {!Circuit.Diagnostic.User_error} with an [STR001] message on
    structural singularity), backend plan + ordering, the chosen
    symbolic phase, and the per-port sparse patterns of the permuted
    [B]. *)

val built_from : t -> Circuit.Mna.t -> bool
(** [built_from t m] — [t] is the context {!create} built from this
    very [m] (physical equality; [false] for {!of_matrices}). *)

val of_matrices : ?nodes:int -> Sparse.Csr.t -> Sparse.Csr.t -> t
(** Context over a raw symmetric pair [(G, C)] — the transient
    engine's stamped system, say — without the MNA-level structural
    pre-flight, ports or unknown labels; the pencil variable is [s].
    [nodes] (default: the dimension) is the count of leading
    node-voltage unknowns: a smaller value declares the general-form
    layout [[node voltages | inductor currents]], which is planned and
    factored as {!create} does the general RLC form. *)

(** {1 Accessors} *)

val n : t -> int

val port_idx : t -> int array array
(** Per port, the permuted rows carrying a nonzero of [B] (ascending).
    Do not mutate. *)

val port_val : t -> float array array
(** The matching [B] entries. Do not mutate. *)

val g : t -> Sparse.Csr.t
(** The original (unpermuted) [G]. *)

val c : t -> Sparse.Csr.t
(** The original (unpermuted) [C]. *)

(** {1 Shift policy (paper eq. (26))} *)

val auto_shift : Circuit.Mna.t -> float
(** Fallback heuristic shift [max |diag G| / max |diag C|] when no
    band is known — the right order of magnitude to make [G + s₀C]
    well conditioned, though usually far from the band of interest
    (prefer passing [band]). *)

val band_shift : Circuit.Mna.t -> float * float -> float
(** The geometric mid-band expansion point [2π√(f_lo·f_hi)] in the
    pencil variable (squared for the LC [σ = s²] form). *)

val with_auto_shift :
  ?shift:float -> ?band:float * float -> t -> (float -> Factor.t -> 'a) -> 'a
(** [with_auto_shift t f] runs [f s₀ fac] with the resolved expansion
    shift and its factorisation. With an explicit [shift] there is no
    retry: {!Factor.Singular} propagates. Otherwise the pencil is
    factored at [0]; if singular, the shift falls back to
    {!band_shift} (when [band] is given) or {!auto_shift} and the
    factorisation is retried once — the single implementation of the
    retry policy shared by every engine. *)

(** {1 Real factorisations} *)

val factor : t -> shift:float -> Factor.t
(** Factor [G + s₀C = M J Mᵀ] (the context's sparse backend against
    the shared symbolic phase; dense Bunch–Kaufman fallback on pivot
    breakdown, logged as a warning naming the failing unknown and
    recorded as the [factor.fallback_dense] counter).

    At [shift = 0.0] on a general-form context (built by {!create}
    from the general RLC form, or by {!of_matrices} with [nodes]
    below the dimension) the factor is instead the supernodal LDLᵀ of the congruent
    [TᵀGT = [[Gn + 2AᵀWA, Aᵀ], [A, 0]]], [T = [[I, 0], [W·A, I]]],
    under an order that eliminates every current after its incident
    nodes — sparse, with exactly one negative pivot per current
    (checked; a mismatch falls back to dense). Its ordering and
    symbolic phase are built on that first call, not by {!create}.
    At a real [shift > 0] on a general-form context of 4 096 unknowns
    or more, the supernodal order eliminates every current before its
    nodes, so the pivot signs are known too — one negative pivot per
    current — and checked the same way.

    Results — including singular outcomes — are memoized by shift:
    a repeat call is a cache hit returning the identical factor.
    Raises {!Factor.Singular} when both the sparse and the dense
    factorisation fail. *)

val factor_with :
  t -> shift:float -> extra:(int * int * float) array -> Factor.t
(** Like {!factor} but accumulates [extra] [(row, col, v)] entries
    (original coordinates, either triangle) onto the assembled matrix
    before factoring — the transient engine's Newton-Jacobian stamps.
    Never cached. Positions must have been declared with {!reserve}
    unless they fall inside the symbolic pattern already. Sparse
    backends only: raises {!Factor.Singular} at the original row on
    breakdown. *)

val reserve : t -> (int * int) array -> unit
(** Grow the shared symbolic phase so the given (original-coordinate)
    positions can be stamped by {!factor_with} — envelope widening
    under skyline, a pattern-augmented symbolic rebuild (same
    ordering) under supernodal. The added slots are structural zeros,
    so subsequent stamp-free factorisations are numerically
    unchanged. *)

(** {1 Complex pencil solves} *)

type cfactor
(** A factored complex pencil [(G + sC)] in permuted coordinates —
    skyline or supernodal split-complex, matching the context's
    backend. *)

val factor_complex : t -> Complex.t -> cfactor
(** Numeric phase of [G + sC] at a complex point against the shared
    symbolic phase — the split-complex AC production kernel. A
    breakdown raises {!Factor.Singular} at the original row. The returned factor lives
    in {e permuted} coordinates; address it through {!port_idx} and
    {!csolve_split}, or use {!transfer} ({!z_at} does all of it). *)

val csolve_split : cfactor -> float array -> float array -> unit
(** [csolve_split fac re im] solves [(G + sC) x = b] in place on the
    split (permuted-coordinate) right-hand side. *)

val transfer : t -> cfactor -> Linalg.Cmat.t
(** [transfer t fac] — the [p×p] port matrix [Bᵀ(G + sC)⁻¹B] from a
    factor of [t], without the MNA gain. On the skyline backend: one
    {!csolve_split} per port, gathered through the sparse port
    patterns. On the supernodal backend: [Yᵀ D⁻¹ Y] with [Y = L⁻¹PB]
    ({!Sparse.Supernodal.Complex_soa.transfer}) — one forward pass
    for all ports over their elimination-tree reach (built with the
    symbolic phase, rebuilt by {!reserve}), no backward pass; the
    result is exactly symmetric. *)

val z_at : t -> Complex.t -> Linalg.Cmat.t
(** [z_at t s] — the exact [Z(s)] at one physical complex frequency:
    [s] mapped to the pencil variable ([s], or [s²] for the LC
    [σ = s²] form), {!factor_complex}, {!transfer} (timed as the
    [ac.solve] span), then the MNA gain ([s·Z] for the [Times_s]
    forms). The one exact-Z entry point of [Simulate.Ac] and
    {!Certify}'s MOD009 drift check. Raises {!Factor.Singular}
    (original row) when the unpivoted factor breaks down at [s]. *)
