(** Registry of the reduced-model certification rules ([symor certify]).

    Where {!Lint} checks netlists {e before} reduction (NET family) and
    {!Struct_rules} checks assembled pencils (STR family), the MOD
    family audits the {e output} of a reduction: a reduced-order model
    against the exact MNA pencil it approximates. The checks themselves
    live in [Sympvl.Certify] — the certification pass needs the
    reduction engines, which sit above this library in the dependency
    order — so this module only carries the rule registry: one row per
    code with its default severity and a one-line summary, mirroring
    {!Lint.rules}. A test pins the registry against the codes
    [Sympvl.Certify.run] actually emits.

    Rule codes (see README "Diagnostics & rules" for the full
    contract):

    - [MOD001] warning — unstable reduced-model pole(s); escalates to
      error when the structural theorem promised stability
    - [MOD002] info — structural passivity certificate; a violated
      certificate is an error on the definite unshifted SyMPVL path
      (it contradicts paper Theorem 5.1), a warning elsewhere
    - [MOD003] warning — Hamiltonian imaginary-axis eigenvalue test
      located passivity violation band(s); info when the whole axis is
      clean
    - [MOD004] warning — reciprocity residual [|Z − Zᵀ|/|Z|] above
      tolerance
    - [MOD005] warning — the model does not match its prescribed Padé
      moments against the exact pencil
    - [MOD006] warning — DC point disagrees with the exact zeroth
      moment at [s = 0]
    - [MOD007] warning — per-band violation report (range, worst
      frequency, min eigenvalue); info for the suggested safe order
    - [MOD008] info — expansion shift outside the certified regime;
      warning when the user forced a shift although the SPD certified
      path was available
    - [MOD009] warning — model drifts from the exact transfer function
      beyond the golden gate on the sampled band
    - [MOD010] warning — backward residual [‖K(s₀)x − b‖] of the real
      factor the model was built from above [1e-7] relative *)

val rules : (string * Circuit.Diagnostic.severity * string) list
(** Rule table: code, default severity when the rule fires, one-line
    summary. *)

val find :
  string -> (string * Circuit.Diagnostic.severity * string) option
(** Look up a rule row by code. *)
