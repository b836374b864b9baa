(** Real polynomials with complex root finding.

    A polynomial is represented by its coefficient array in ascending
    order: [c.(k)] is the coefficient of [x^k]. Used by the AWE
    baseline (explicit Padé numerator/denominator). *)

type t = float array

val degree : t -> int
(** Degree ignoring exact trailing zeros; [-1] for the zero
    polynomial. *)

val eval : t -> float -> float
(** Horner evaluation at a real point. *)

val eval_cx : t -> Linalg.Cx.t -> Linalg.Cx.t
(** Horner evaluation at a complex point. *)

val derivative : t -> t

val roots : ?iterations:int -> ?tol:float -> t -> Linalg.Cx.t array
(** All complex roots by the Durand–Kerner (Weierstrass) iteration.
    Adequate for the small degrees (≤ ~16) used by AWE. Raises
    [Invalid_argument] on the zero polynomial. *)
