(** Front-end for the symmetric factorisation [G = M J Mᵀ] (paper
    eq. (15)) with [J = diag(±1)].

    All returned operators act in the original coordinates; any
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
(** The matrix is numerically singular — apply a frequency shift
    (paper eq. (26)) and retry. *)

(** {1 Sparse-backend selection}

    Two sparse symbolic strategies sit behind every factorisation:
    RCM ordering + skyline envelope (the small-circuit default, cheap
    constants, bitwise-stable results) and AMD ordering + supernodal
    panels ({!Sparse.Supernodal}, the scattered-sparsity backend that
    scales to 10⁵ unknowns). {!plan} picks per pattern; the
    [SYMOR_FACTOR] environment variable ([skyline] | [supernodal]) or
    {!set_backend} forces one globally. *)

type backend = [ `Auto | `Skyline | `Supernodal ]

val backend : unit -> backend
(** The current override ([`Auto] unless [SYMOR_FACTOR] or
    {!set_backend} said otherwise). *)

val set_backend : backend -> unit
(** Force (or restore to [`Auto]) the sparse backend for subsequent
    factorisations — the [--factor] CLI flag. Thread-safe. *)

val supernodal_threshold : int
(** Below this unknown count [`Auto] always picks skyline. *)

type plan = [ `Skyline of int array | `Supernodal of int array ]

val plan : Sparse.Csr.t -> plan
(** [plan pattern] — the backend decision plus its fill-reducing
    permutation ({!Csr.permute_sym} convention). Under [`Auto], small
    patterns take RCM-skyline outright; large ones compare the RCM
    envelope against twice the AMD predicted factor nnz and take the
    supernodal backend when the envelope loses — the same numbers
    [symor analyze] reports. *)

val of_skyline : int -> int array -> Sparse.Skyline.Real.t -> t
(** [of_skyline n perm fac] wraps an already-computed skyline
    factorisation of [P A Pᵀ] (rows of [perm] list old indices in new
    order) into operators acting in the original coordinates:
    [M = Pᵀ L √|D|], [J = sign D]. This is how {!Pencil} turns its
    envelope-reusing numeric factorisations into [Factor.t]s. *)

val of_supernodal : int -> int array -> Sparse.Supernodal.Real.t -> t
(** Same wrapping for a supernodal factorisation of [P A Pᵀ]. *)

val congruent : t:(Linalg.Vec.t -> Linalg.Vec.t) -> tt:(Linalg.Vec.t -> Linalg.Vec.t) -> t -> t
(** [congruent ~t ~tt f] turns a factorisation [f] of the congruent
    matrix [K' = TᵀKT] into one of [K], given [t x = T x] and
    [tt x = Tᵀ x]: [M = T⁻ᵀM'] with the same [J] and [kind], so
    [M⁻¹ = M'⁻¹Tᵀ], [M⁻ᵀ = T M'⁻ᵀ] and [K⁻¹ = T K'⁻¹ Tᵀ]. *)

val of_csr : ?ordering:bool -> ?pivot_tol:float -> Sparse.Csr.t -> t
(** Sparse path: {!plan} picks the ordering and backend
    ([ordering:false] forces identity-ordered skyline). Raises
    {!Singular} on pivot breakdown — note that an *indefinite* matrix
    can also break down without pivoting; use {!auto} to fall back to
    the dense Bunch–Kaufman factorisation. *)

val of_dense : Linalg.Mat.t -> t
(** Dense Bunch–Kaufman path (any symmetric nonsingular input). *)

val auto : ?ordering:bool -> Sparse.Csr.t -> t
(** The planned sparse backend first; on breakdown, dense
    Bunch–Kaufman (recorded as the [factor.fallback_dense] counter
    and instant under [--stats]/[--trace]). Raises {!Singular} only
    if both fail (then the matrix really is singular: shift). *)

val with_shift : ?ordering:bool -> Sparse.Csr.t -> Sparse.Csr.t -> float -> t
(** [with_shift g c s0] factors [G + s0·C] via {!auto}. *)
