(** Exact AC (frequency-domain) analysis.

    Computes the multi-port transfer function [Z(s)] of an assembled
    MNA pencil by direct complex-symmetric factorisation of
    [(G + var·C)] at each frequency point — the "exact analysis"
    reference curves of the paper's Figures 2–4.

    The sweep is split into a one-time symbolic phase (the shared
    {!Sympvl.Pencil} context: backend plan, ordering, G/C
    pre-scatter, per-port sparse B patterns and, on the supernodal
    backend, the ports' elimination-tree reach) and a per-frequency
    numeric phase, {!Sympvl.Pencil.z_at}: the split-complex (SoA)
    factor of the planned backend, then [BᵀX] — one solve per port
    on the skyline, one forward pass over the reach for all ports on
    the supernodal backend. Frequency points are distributed over the
    shared {!Parallel} pool. Every point is independent, so the sweep
    output is bitwise identical to a sequential run at any job
    count. *)

type sweep = {
  freqs : float array;  (** In Hz. *)
  z : Linalg.Cmat.t array;  (** [Z(j2πf)], one [p×p] matrix per point. *)
  port_names : string array;
}

type workspace = Sympvl.Pencil.t
(** Reusable symbolic phase of the sweep — the shared pencil context
    (backend plan and ordering, symbolic phase with pre-scattered G/C,
    per-port sparse B patterns). Build once with {!workspace}; each
    {!z_at_ws} call is then a pure numeric factor + solve. Because it
    {e is} a {!Sympvl.Pencil.t}, the same context can be handed to
    {!Sympvl.Reduce.mna} or {!Sympvl.Moments.exact} to share the
    symbolic phase between exact analysis and reduction. *)

val workspace : Circuit.Mna.t -> workspace

val z_at_ws : Circuit.Mna.t -> workspace -> Complex.t -> Linalg.Cmat.t
(** [z_at_ws m ws s] — {!z_at} against a precomputed symbolic phase
    [ws] built from [m]: {!Sympvl.Pencil.z_at}, timed as the
    [ac.point] span (the [ac.solve] span nested in it times
    {!Sympvl.Pencil.transfer}) and counted in [ac.points]. Raises
    {!Sympvl.Factor.Singular} (original row) when the unpivoted factor
    of [G + sC] breaks down at [s].
    @raise Invalid_argument unless [ws] is {!workspace} of this very
    [m] ({!Sympvl.Pencil.built_from}). *)

val z_at : Circuit.Mna.t -> Complex.t -> Linalg.Cmat.t
(** [z_at m s] evaluates the exact [Z(s)] at one physical complex
    frequency (gain and variable conventions as in
    {!Sympvl.Realisation.eval}). *)

val sweep_ws : ?jobs:int -> Circuit.Mna.t -> workspace -> float array -> sweep
(** {!sweep} against a precomputed symbolic phase — the serve daemon's
    point table sweeps a request's missing frequency points through it
    in one pooled call. Same bitwise-identical-at-any-job-count
    guarantee. *)

val sweep : ?jobs:int -> Circuit.Mna.t -> float array -> sweep
(** [sweep m freqs] evaluates along the [jω] axis. [jobs] overrides
    the shared pool with a private one of that size for this sweep
    ([jobs = 1] forces plain sequential evaluation); without it the
    shared {!Parallel.get} pool is used. *)

val log_freqs : ?points:int -> float -> float -> float array
(** [log_freqs f_lo f_hi] — logarithmically spaced frequency grid
    (default 200 points). *)

val model_sweep :
  (Complex.t -> Linalg.Cmat.t) -> float array -> Linalg.Cmat.t array
(** Sweep any evaluator (e.g. [Rom.eval model]) on the same grid. *)

val max_rel_error : sweep -> Linalg.Cmat.t array -> float
(** Worst relative (max-norm) deviation over the sweep — the
    figure-of-merit used in EXPERIMENTS.md. *)
