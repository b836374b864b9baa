(** Dense symmetric-indefinite factorisation (Bunch–Kaufman).

    Computes [P A Pᵀ = L D Lᵀ] with unit lower-triangular [L] and
    block-diagonal [D] (1×1 and 2×2 blocks), then exposes the
    sign-split form

      [A = M J Mᵀ],   [M = Pᵀ L S],   [D = S J Sᵀ],  [J = diag(±1)]

    required by the SyMPVL Lanczos process (paper eq. (15)). *)

type t

exception Singular of int
(** Raised when a pivot block is numerically singular; the payload is
    the column index. Use a frequency shift on the input when this
    happens (paper eq. (26)). *)

val factor : ?tol:float -> Mat.t -> t
(** Factor a symmetric matrix; only symmetric inputs give meaningful
    results (checked by assertion up to roundoff). [tol] (default
    [1e-13]) is the relative pivot-breakdown threshold. *)

val dim : t -> int

val solve : t -> Vec.t -> Vec.t
(** Solve [A x = b]. *)

val inertia : t -> int * int
(** [(n_pos, n_neg)] numbers of positive / negative eigenvalues. *)

val j_diag : t -> float array
(** The diagonal of [J] (entries ±1), length [dim]. *)

val is_definite : t -> bool
(** True when [J = I] (A positive definite). *)

val apply_m : t -> Vec.t -> Vec.t
(** [M x]. *)

val m_inv : t -> Vec.t -> Vec.t -> unit
(** [m_inv t x y] writes [M⁻¹ x] into [y] ([x], [y] distinct, of
    length [dim]; [x] may be overwritten). *)

val mt_inv : t -> Vec.t -> Vec.t -> unit
(** [mt_inv t x y] writes [M⁻ᵀ x] into [y], overwriting [x] (its
    workspace). *)

val m_dense : t -> Mat.t
(** Materialise [M] (testing / small problems). *)
