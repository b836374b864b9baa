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
      plans on): RCM ordering + skyline envelope, or AMD ordering +
      supernodal panels for large scattered patterns — forced either
      way by [SYMOR_FACTOR];
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

val of_matrices : Sparse.Csr.t -> Sparse.Csr.t -> t
(** Context over a raw symmetric pair [(G, C)] — the transient
    engine's stamped system, say — without the MNA-level structural
    pre-flight, ports or unknown labels; the pencil variable is [s]. *)

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

    At [shift = 0.0] on a context built by {!create} from the general
    RLC form (variable [S], unit gain, inductor currents after the
    nodes) the factor is instead the supernodal LDLᵀ of the congruent
    [TᵀGT = [[Gn + 2AᵀWA, Aᵀ], [A, 0]]], [T = [[I, 0], [W·A, I]]],
    under an order that eliminates every current after its incident
    nodes — sparse, with exactly one negative pivot per current
    (checked; a mismatch falls back to dense). Its ordering and
    symbolic phase are built on that first call, not by {!create}.

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
    supernodal breakdown retries once on an RCM-ordered skyline
    envelope; a breakdown there (or on a skyline context) raises
    {!Factor.Singular} at the original row. The returned factor lives
    in {e permuted} coordinates; address it through {!port_idx} and
    {!csolve_split}, or use {!transfer}. *)

val csolve_split : cfactor -> float array -> float array -> unit
(** [csolve_split fac re im] solves [(G + sC) x = b] in place on the
    split (permuted-coordinate) right-hand side. *)

val transfer : t -> cfactor -> Linalg.Cmat.t
(** [transfer t fac] — the [p×p] port matrix [Bᵀ(G + sC)⁻¹B] from a
    factor of [t]: one {!csolve_split} per port, gathered through the
    sparse port patterns. The exact-Z kernel behind [Simulate.Ac] and
    {!Certify}'s drift check; the caller applies the MNA gain. *)
