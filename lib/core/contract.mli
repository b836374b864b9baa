(** Numerical contract checker for the reduction pipeline.

    The linter ([Analysis.Lint]) proves structural preconditions
    statically; this module verifies the {e numerical} contracts the
    algorithm relies on, after the matrices and Krylov quantities
    exist, and reports through the same {!Circuit.Diagnostic.t}
    findings pipeline:

    - [NUM001]/[NUM002] — symmetry residual of the assembled [G]/[C]
      (error above [tol]; the whole symmetric Lanczos machinery is
      built on [G = Gᵀ], [C = Cᵀ])
    - [NUM003] — J-orthogonality drift of the band-Lanczos vectors,
      [‖VᵀJV − Δ‖ / ‖Δ‖] (warning above [drift_tol]; large drift means
      the look-ahead/deflation thresholds were too loose for this
      conditioning)
    - [NUM004] — deflation-tolerance consistency: [dtol] against the
      cluster-closing tolerance [ctol] and machine precision, plus a
      record of the deflations that occurred
    - [NUM007] — factor-solve backward residual of the shared
      {!Pencil} context at the expansion shift (warning above [tol])

    The model's stability and passivity are not re-derived here:
    {!Certify.structural} (MOD002/MOD001) judges every engine's model
    through one adapter, and [symor reduce --check] adds those two
    findings to the contract findings for the exit code.

    Enable from the CLI with [symor reduce --check] or by setting
    [SYMOR_CHECK=1] in the environment. *)

val enabled : unit -> bool
(** True when the [SYMOR_CHECK] environment variable is set to [1],
    [true], [yes] or [on]. *)

val check_mna : ?tol:float -> Circuit.Mna.t -> Circuit.Diagnostic.t list
(** Symmetry residuals of [G] and [C] ([NUM001]/[NUM002]); [tol]
    (default [1e-8]) is relative to the largest entry. *)

val check_lanczos :
  ?drift_tol:float ->
  j:float array ->
  dtol:float ->
  ctol:float ->
  Band_lanczos.result ->
  Circuit.Diagnostic.t list
(** J-orthogonality drift and tolerance consistency
    ([NUM003]/[NUM004]); [drift_tol] defaults to [1e-6]. *)

val check_pencil :
  ?tol:float -> Pencil.t -> shift:float -> Circuit.Diagnostic.t list
(** Backward-residual probe of the shared pencil context ([NUM007]):
    solve [K(s₀)x = b] through the (cached) factorisation and check
    [‖K(s₀)x − b‖∞ / (‖K‖‖x‖ + ‖b‖) ≤ tol] (default [1e-7]). *)
