(** Symbolic structure analysis of the assembled MNA pencil
    ([symor analyze]).

    Where {!Lint} inspects the netlist graph and [Sympvl.Certify]
    audits the reduced model after the fact, this pass sits in the
    middle: it analyses the {e sparsity pattern} of the stamped pencil
    [G + sC] — no floating-point values — and certifies solvability
    and factorisation cost before any numerical work:

    - maximum transversal ({!Sparse.Matching}) gives the structural
      rank: a deficiency means the pencil is singular for {e every}
      value assignment, a defect no frequency shift can repair;
    - Dulmage–Mendelsohn ({!Sparse.Dm}) localises the defect into
      under-/over-determined blocks and exposes the block-triangular
      form of the well-determined part;
    - the elimination tree ({!Sparse.Etree}) predicts the exact
      factor fill of the natural, {!Sparse.Rcm} and {!Sparse.Amd}
      orderings, so the ordering recommendation is measured, not
      guessed.

    Rule codes (see README "Diagnostics & linting"):

    - [STR001] error — [G + sC] structurally singular: a row cannot
      be matched to an independent equation (named with its node and
      source line when known)
    - [STR002] error — under-determined block: unknowns that no
      subset of equations can determine
    - [STR003] error — over-determined block: structurally redundant
      equations
    - [STR004] warning — [G] alone structurally singular: the DC
      expansion point [s₀ = 0] is unusable for every value
      assignment; reduction needs a frequency shift (pass [--band])
    - [STR005] warning — predicted factor fill exceeds
      [fill_threshold] × the pencil's lower-triangle nonzeros even
      under the best ordering (dense-factor territory)
    - [STR006] info — ordering recommendation: predicted factor
      nonzeros for natural / RCM / AMD and the measured winner
    - [STR007] info — the pencil is reducible: it decomposes into
      independent diagonal blocks (solvable separately)
    - [STR008] info — structure summary: dimensions, nonzeros,
      bandwidth, profile, structural rank
    - [STR009] info — second-order structure: the inductor-loop
      count, K-card coupling density and the MNA form {!Circuit.Mna.auto}
      picks (the [`Sprim] engine splits the general form at the
      node/current boundary) *)

val rules : (string * Circuit.Diagnostic.severity * string) list
(** Rule table: code, default severity, one-line summary. *)

type matrix_stats = {
  n : int;  (** Pencil dimension. *)
  n_nodes : int;  (** Leading node-voltage unknowns. *)
  nnz_g : int;
  nnz_c : int;
  nnz_pencil : int;  (** Stored entries of the union pattern. *)
  nnz_lower : int;  (** Lower triangle of the union pattern, diagonal included. *)
  bandwidth : int;
  profile : int;
  struct_rank : int;  (** Of the union pattern; [= n] iff solvable. *)
  blocks : int;  (** Diagonal blocks of the fine DM decomposition. *)
  largest_block : int;
}

val stats : Circuit.Mna.t -> matrix_stats
(** Cheap symbolic summary of an assembled pencil (no ordering
    predictions) — what [symor info] prints. *)

type ordering = Natural | Rcm | Amd

type ordering_report = {
  natural_nnz : int;
  rcm_nnz : int;
  amd_nnz : int;  (** Predicted factor nnz ({!Sparse.Etree}) each. *)
  natural_profile : int;
  rcm_profile : int;  (** Envelope the skyline backend would fill. *)
  best : ordering;
      (** Smallest predicted factor nnz; ties prefer the cheaper
          machinery ([Natural] over [Rcm] over [Amd]). *)
  skyline_stored : int;
      (** Entries the RCM+skyline backend stores (envelope + diagonal). *)
  supernodal_stored : int;
      (** Entries the AMD+supernodal backend stores: the predicted
          factor nnz under [Sympvl.Factor.supernodal_order]
          ({!Sparse.Supernodal} is fill-exact) — the AMD figure on
          nodal pencils, the currents-before-nodes constrained order's
          on the general RLC form. *)
  backend_pick : [ `Skyline | `Supernodal ];
      (** The decision [Sympvl.Factor.plan] makes on this pattern —
          the backend a reduction of this netlist will actually use. *)
}

val orderings : Circuit.Mna.t -> ordering_report
(** Measured ordering comparison on the pencil pattern. *)

val ordering_name : ordering -> string

val backend_name : [ `Skyline | `Supernodal ] -> string

val run :
  ?fill_threshold:float ->
  Circuit.Netlist.t ->
  Circuit.Mna.t ->
  Circuit.Diagnostic.t list
(** All structural findings for an assembled pencil, sorted
    errors-first. The netlist provides provenance: offending pencil
    rows are reported with node names and source lines.
    [fill_threshold] (default 10) gates [STR005]. *)

val analyze : ?fill_threshold:float -> Circuit.Netlist.t -> Circuit.Diagnostic.t list
(** [Circuit.Mna.auto] followed by {!run}. Raises
    {!Circuit.Diagnostic.User_error} when no pencil can be assembled
    (nonlinear/controlled elements, no ports) — run {!Lint} first for
    netlists of unknown provenance. *)

val analyze_string : ?fill_threshold:float -> string -> Circuit.Diagnostic.t list
(** Parse then {!analyze}; a parse failure yields a single [NET000]
    finding, like {!Lint.lint_string}. *)

val analyze_file : ?fill_threshold:float -> string -> Circuit.Diagnostic.t list
