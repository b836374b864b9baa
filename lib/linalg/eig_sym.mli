(** Dense symmetric eigendecomposition.

    Householder tridiagonalisation followed by implicit-shift QL,
    accumulating eigenvectors. Used for pole/residue extraction of
    reduced-order models in the definite ([J = I]) case, for
    stability/passivity certificates, and for small SPD kernels. *)

type result = {
  values : Vec.t; (* eigenvalues, ascending *)
  vectors : Mat.t; (* column j is the eigenvector for values.(j) *)
}

exception No_convergence
(** QL needed more than 50 sweeps for one eigenvalue — in practice
    only on non-finite input. *)

val decompose : Mat.t -> result
(** Full eigendecomposition of a symmetric matrix (the lower triangle
    is trusted). Raises {!No_convergence} if QL fails to converge. *)

val values : Mat.t -> Vec.t
(** Eigenvalues only (still accumulates internally; convenience). *)

val tridiag : Vec.t -> Vec.t -> result
(** [tridiag d e] decomposes the symmetric tridiagonal matrix with
    diagonal [d] (length n) and subdiagonal [e] (length n-1). *)

val min_eigenvalue : Mat.t -> float
(** Smallest eigenvalue of a symmetric matrix. *)
