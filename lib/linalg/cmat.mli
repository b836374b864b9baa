(** Dense complex matrices (split re/im storage) and a complex LU
    solver. Used for evaluating transfer functions [Z(s)] and reduced
    models [Zₙ(s)] at complex frequencies. *)

type t = { rows : int; cols : int; re : float array; im : float array }

val create : int -> int -> t

val init : int -> int -> (int -> int -> Cx.t) -> t

val identity : int -> t

val of_real : Mat.t -> t

val copy : t -> t

val get : t -> int -> int -> Cx.t

val set : t -> int -> int -> Cx.t -> unit

val add_to : t -> int -> int -> Cx.t -> unit

val lincomb : Cx.t -> Mat.t -> Cx.t -> Mat.t -> t
(** [lincomb a ma b mb] is [a·ma + b·mb] over real matrices — the
    typical [(G + sC)] construction. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : Cx.t -> t -> t

val mul : t -> t -> t

val mul_vec : t -> Cx.t array -> Cx.t array

val transpose : t -> t

val dist_max : t -> t -> float
(** Largest entrywise modulus of the difference. *)

val max_abs : t -> float

val hermitian_part : t -> t
(** [(m + mᴴ)/2]. *)

val min_eig_hermitian : t -> float
(** Smallest eigenvalue of a Hermitian matrix, via the real symmetric
    embedding [[re −im; im re]]. Used for passivity sweeps. *)

type lu
(** A complex LU factorisation with partial pivoting. *)

exception Singular of int

val lu_factor : t -> lu
(** [P·A = L·U]. The pivot of column [k] is the first entry of largest
    modulus ([Float.hypot]) on or below the diagonal; [Singular k] when
    it is zero. Runs on the split arrays without boxing an entry, with
    the [Complex.div]/[Complex.mul] formulas, so the factors are bitwise
    those of the same elimination written with [Cx] operators. *)

val lu_packed : lu -> t * int array
(** The packed factors (unit-lower [L] strictly below the diagonal,
    [U] on and above it) and the row permutation: row [i] of [L·U] is
    row [piv.(i)] of [A]. *)

val lu_solve_vec : lu -> Cx.t array -> Cx.t array

val lu_solve_mat : lu -> t -> t
(** Column [j] of the result is bitwise [lu_solve_vec] of column [j]
    of the right-hand side. *)

val solve : t -> t -> t
(** One-shot factor and solve of [A X = B]. *)

val pp : Format.formatter -> t -> unit
