(** The symmetric factorisation [G + s₀C = M J Mᵀ] (paper eq. (15))
    with [J = diag(±1)], as the operators SyMPVL runs on.

    {!Pencil} is the only module that builds one from a sparse
    backend: it plans, runs the shared symbolic phase, and falls back
    to {!of_dense}. This module holds the result type, the backend
    decision ({!plan}) and the wrappers that turn an [L D Lᵀ] into a
    [t]. All returned operators act in the original coordinates; any
    internal fill-reducing permutation is hidden. Positive
    semi-definite inputs that factor cleanly give [J = I]
    ([definite = true]) — the provably stable/passive SyMPVL path. *)

type t = {
  n : int;
  j : float array;  (** Diagonal of [J], entries ±1. *)
  definite : bool;  (** [J = I]. *)
  apply_m_inv : Linalg.Vec.t -> Linalg.Vec.t;  (** [M⁻¹ x]. *)
  apply_mt_inv : Linalg.Vec.t -> Linalg.Vec.t;  (** [M⁻ᵀ x]. *)
  solve : Linalg.Vec.t -> Linalg.Vec.t;
      (** [G⁻¹ b = M⁻ᵀ J⁻¹ M⁻¹ b] (used by the moment checker). *)
  kind : [ `Skyline | `Supernodal | `Dense ];
      (** Which backend factored [G]. *)
}

exception Singular of int
(** [Singular row]: the factorisation broke down at [row], in the
    {e original} (unpermuted) coordinates of the pencil — an
    {!Circuit.Mna.unknown_label} index when the pencil came from an
    MNA assembly. The one exception {!Pencil} lets out, raised at real
    shifts (the matrix is singular: apply a frequency shift, paper
    eq. (26)) and at complex points (the unpivoted sparse [L D Lᵀ] of
    [G + sC] met a zero pivot). *)

(** {1 Sparse-backend selection}

    Two sparse symbolic strategies sit behind every factorisation:
    RCM ordering + skyline envelope (the small-circuit default, cheap
    constants, bitwise-stable results) and AMD ordering + supernodal
    panels ({!Sparse.Supernodal}, the scattered-sparsity backend that
    scales to 10⁵ unknowns). {!plan} picks per pattern; the
    [SYMOR_FACTOR] environment variable ([skyline] | [supernodal]),
    read once at start-up, forces one globally. *)

type plan = [ `Skyline of int array | `Supernodal of int array ]

val plan : Sparse.Csr.t -> plan
(** [plan pattern] — the backend decision plus its fill-reducing
    permutation ({!Csr.permute_sym} convention). Without an override,
    patterns below 4 096 unknowns take RCM-skyline and larger ones
    AMD-supernodal, each without building the other's ordering. *)

(** {1 Wrappers} *)

val of_ldlt :
  kind:[ `Skyline | `Supernodal ] ->
  perm:int array ->
  d:float array ->
  solve_lower:(Linalg.Vec.t -> Linalg.Vec.t) ->
  solve_lower_t:(Linalg.Vec.t -> Linalg.Vec.t) ->
  solve:(Linalg.Vec.t -> Linalg.Vec.t) ->
  t
(** [of_ldlt ~kind ~perm ~d ~solve_lower ~solve_lower_t ~solve] wraps
    a sparse factorisation [P A Pᵀ = L D Lᵀ] (rows of [perm] list old
    indices in new order; [d] the pivots; [solve_lower x = L⁻¹x],
    [solve_lower_t x = L⁻ᵀx] and [solve x = (L D Lᵀ)⁻¹x], all in
    permuted coordinates) into operators acting in the original
    coordinates: [M = Pᵀ L √|D|], [J = sign D]. *)

val congruent : t:(Linalg.Vec.t -> Linalg.Vec.t) -> tt:(Linalg.Vec.t -> Linalg.Vec.t) -> t -> t
(** [congruent ~t ~tt f] turns a factorisation [f] of the congruent
    matrix [K' = TᵀKT] into one of [K], given [t x = T x] and
    [tt x = Tᵀ x]: [M = T⁻ᵀM'] with the same [J] and [kind], so
    [M⁻¹ = M'⁻¹Tᵀ], [M⁻ᵀ = T M'⁻ᵀ] and [K⁻¹ = T K'⁻¹ Tᵀ]. *)

val of_dense : Linalg.Mat.t -> t
(** Dense Bunch–Kaufman path (any symmetric nonsingular input);
    raises {!Singular} otherwise. *)
