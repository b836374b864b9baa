(** Compressed sparse row matrices (duplicates merged, columns sorted
    within each row). *)

type t = {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows + 1 *)
  col_idx : int array; (* length nnz, ascending within a row *)
  values : float array;
}

val of_triplet : Triplet.t -> t
(** Build from a COO builder, merging duplicate entries (entries that
    cancel exactly are kept as explicit zeros only if produced by
    merging; pure zeros were never added). *)

val of_dense : Linalg.Mat.t -> t

val to_dense : t -> Linalg.Mat.t

val nnz : t -> int

val get : t -> int -> int -> float
(** Logarithmic lookup within a row; absent entries are 0. *)

val mul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t

val mul_vec_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [mul_vec_into a x y] writes [A x] into [y] (no allocation). *)

val mul_dense : t -> Linalg.Mat.t -> Linalg.Mat.t
(** [mul_dense a x] is [A X] without densifying [A]: the bits of
    [Linalg.Mat.mul (to_dense a) x] (zero entries skipped, each row's
    terms summed in ascending column order). *)

val transpose : t -> t

val add : ?alpha:float -> ?beta:float -> t -> t -> t
(** [add ~alpha ~beta a b = alpha·a + beta·b] (defaults 1, 1). *)

val scale : float -> t -> t

val identity : int -> t

val is_symmetric : ?tol:float -> t -> bool

val permute_sym : t -> int array -> t
(** [permute_sym a perm] computes [P A Pᵀ] where the row [i] of the
    result is row [perm.(i)] of [a] (so [perm] lists old indices in
    new order). *)

val iter_row : t -> int -> (int -> float -> unit) -> unit

val bandwidth : t -> int
(** Maximum [|i − j|] over stored entries. *)

val profile : t -> int
(** Sum over rows of [i − min column index ≤ i] (the envelope size a
    skyline factorisation will fill). *)
