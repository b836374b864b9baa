(** SyMPVL driver: netlist / MNA pencil → reduced-order model.

    Handles the whole pipeline of the paper: assemble (or accept) the
    symmetric pencil [(G, C, B)], factor [G + s₀C = M J Mᵀ], run the
    symmetric band-Lanczos process on [J⁻¹M⁻¹CM⁻ᵀ] with starting
    block [J⁻¹M⁻¹B], and package the result as a {!Model.t}.

    When [G] is singular (e.g. the LC PEEC circuit: no DC path to
    ground) and no shift was supplied, a frequency shift is chosen
    automatically (eq. (26)) and the expansion is performed about it. *)

type options = {
  order : int;  (** Requested reduced order [n]. *)
  shift : float option;
      (** Expansion shift [s₀] in the pencil variable ([σ = s²] for
          LC). [None]: 0, with automatic retry on singular [G]. *)
  band : (float * float) option;
      (** Target frequency band in Hz. Used to pick a good automatic
          shift when [G] is singular: the geometric mid-band
          [2π√(f_lo·f_hi)] (squared for the LC [s²] variable). *)
  dtol : float;  (** Deflation tolerance (see {!Band_lanczos.run}). *)
  ctol : float;  (** Cluster-closing tolerance. *)
  full_ortho : bool;  (** Full re-J-orthogonalisation (default true). *)
}

val default : order:int -> options

val band_shift : Circuit.Mna.t -> float * float -> float
(** The mid-band expansion point in the pencil variable
    (= {!Pencil.band_shift}). *)

val auto_shift : Circuit.Mna.t -> float
(** Fallback heuristic shift [max |diag G| / max |diag C|] when no
    band is known (= {!Pencil.auto_shift}) — the right order of
    magnitude to make [G + s₀C] well conditioned, though usually far
    from the band of interest (prefer passing [band]). *)

val mna : ?opts:options -> ?ctx:Pencil.t -> order:int -> Circuit.Mna.t -> Model.t
(** Reduce a pre-assembled pencil. [opts] overrides [order] if both
    given. All pencil work — structural pre-flight, ordering,
    factorisation, the eq. (26) shift policy — is delegated to a
    {!Pencil.t} context; pass [ctx] to share one (its cached
    factorisations, symbolic phase and pre-flight) across several
    reductions or with {!Moments}.

    The structural pre-flight: if the pattern of [G + sC] has
    structural rank < n (singular for {e every} element value and
    shift — see {!Sparse.Matching}), {!Pencil.create} raises
    {!Circuit.Diagnostic.User_error} with an [STR001] message naming
    the unmatched unknowns, instead of a late {!Factor.Singular} from
    a doomed shifted retry. {!Factor.Singular} is still raised when
    the structurally sound pencil is {e numerically} singular even
    after the automatic shift. *)

val netlist : ?opts:options -> order:int -> Circuit.Netlist.t -> Model.t
(** [Circuit.Mna.auto] followed by {!mna} — the paper's specialised
    PSD forms are picked automatically for RC/RL/LC circuits. *)

val scalar : ?opts:options -> order:int -> port:int -> Circuit.Mna.t -> Model.t
(** SyPVL (the p = 1 predecessor, ref. [8]): reduce using only the
    given port column of [B]. *)

val to_accuracy :
  ?opts:options ->
  ?ctx:Pencil.t ->
  ?max_order:int ->
  ?points:int ->
  tol:float ->
  band:float * float ->
  Circuit.Mna.t ->
  Model.t * float
(** Adaptive order selection: grow the reduced order until two
    successive models agree to relative tolerance [tol] on a
    [points]-point grid (default 25) over [band] — a practical
    convergence criterion that needs no exact solves. Returns the
    converged model and the last observed model-to-model deviation
    (an error {e estimate}, not a bound). [max_order] defaults to
    [min(N, 200)]. Every trial order shares one {!Pencil} context —
    [ctx] when given. *)
