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
  m_inv : Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [m_inv x y] writes [M⁻¹ x] into [y] and allocates nothing;
          [x] and [y] are distinct vectors of length [n], and [x] may
          be overwritten. *)
  mt_inv : Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [mt_inv x y] writes [M⁻ᵀ x] into [y] under the same
          contract: [x] serves as the workspace and is overwritten. *)
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
    scales to 10⁵ unknowns). {!plan} picks by pattern size alone. *)

type plan = [ `Skyline of int array | `Supernodal of int array ]

val supernodal_order : nodes:int -> Sparse.Csr.t -> int array
(** [supernodal_order ~nodes pattern] — the supernodal backend's
    permutation ({!Csr.permute_sym} convention): AMD composed with its
    elimination-tree postorder. On the general RLC form ([nodes] below
    the dimension: the trailing unknowns are inductor currents) the
    order is constrained so that every current is eliminated before
    each of its node neighbours ({!Sparse.Supernodal.order} [~early]);
    at any real shift [s₀ > 0] the unpivoted [L D Lᵀ] then exists, with
    a negative pivot for each current and a positive one for each
    node. *)

val plan : nodes:int -> Sparse.Csr.t -> plan
(** [plan ~nodes pattern] — the backend decision plus its
    fill-reducing permutation ({!Csr.permute_sym} convention):
    patterns below 4 096 unknowns take RCM-skyline, larger ones
    {!supernodal_order}, each without building the other's
    ordering. [nodes] is the count of leading node-voltage unknowns
    (the dimension for nodal RC/RL/LC pencils). *)

(** {1 Wrappers} *)

val of_ldlt :
  kind:[ `Skyline | `Supernodal ] ->
  perm:int array ->
  d:float array ->
  solve_lower:(Linalg.Vec.t -> unit) ->
  solve_lower_t:(Linalg.Vec.t -> unit) ->
  solve:(Linalg.Vec.t -> Linalg.Vec.t) ->
  t
(** [of_ldlt ~kind ~perm ~d ~solve_lower ~solve_lower_t ~solve] wraps
    a sparse factorisation [P A Pᵀ = L D Lᵀ] (rows of [perm] list old
    indices in new order; [d] the pivots; [solve_lower x] and
    [solve_lower_t x] overwrite [x] with [L⁻¹x] and [L⁻ᵀx], [solve x]
    returns [(L D Lᵀ)⁻¹x], all in permuted coordinates) into operators
    acting in the original coordinates: [M = Pᵀ L √|D|],
    [J = sign D]. *)

val congruent : t:(Linalg.Vec.t -> unit) -> tt:(Linalg.Vec.t -> unit) -> t -> t
(** [congruent ~t ~tt f] turns a factorisation [f] of the congruent
    matrix [K' = TᵀKT] into one of [K], given [t x] and [tt x] that
    overwrite [x] with [T x] and [Tᵀ x]: [M = T⁻ᵀM'] with the same [J]
    and [kind], so [M⁻¹ = M'⁻¹Tᵀ], [M⁻ᵀ = T M'⁻ᵀ] and
    [K⁻¹ = T K'⁻¹ Tᵀ]. *)

val of_dense : Linalg.Mat.t -> t
(** Dense Bunch–Kaufman path (any symmetric nonsingular input);
    raises {!Singular} otherwise. *)
