(** AWE: asymptotic waveform evaluation (Pillage–Rohrer [13]) —
    explicit-moment Padé approximation of a single transfer-function
    entry.

    This is the baseline the Lanczos-based methods replace: the Padé
    coefficients are computed from explicitly generated moments via a
    Hankel system, which is exponentially ill-conditioned in the
    order. It works for small orders (≲ 8–10) and then breaks down —
    the instability documented in [5] that motivates SyPVL/SyMPVL.
    Restricted to pencils in the [s] variable. Run by [bench tabD] and
    [examples/compare_methods.ml]; it is not a {!Sympvl.Rom} engine. *)

type t = {
  shift : float;  (** Expansion point [s₀]. *)
  gain : Circuit.Mna.gain;  (** The pencil's gain, applied by {!eval}. *)
  poles : Complex.t array;  (** Poles [pₖ] in [σ = s − s₀]. *)
  residues : Complex.t array;  (** Residue [rₖ] of each pole. *)
  order : int;
  hankel_rcond : float;
      (** Reciprocal condition estimate of the Hankel system — watch
          it collapse as the order grows. *)
}

exception Breakdown of string
(** The Hankel system is numerically singular, or the order exceeds
    twice the pencil size (at most [2N] of the [2·order] moments are
    independent). *)

val build : ?band:float * float -> order:int -> port:int -> Circuit.Mna.t -> t
(** [build ~order ~port m] computes the [order]-pole AWE model of
    [Z_port,port] from [2·order] explicit moments, solved through a
    pencil context of its own. The expansion point is 0, or [band]
    guides {!Sympvl.Pencil.with_auto_shift}'s retry when [G] is
    singular — the engines' policy. *)

val eval : t -> Complex.t -> Complex.t
(** [Ẑ(s) = gain·Σₖ rₖ/(σ − pₖ)], [σ = s − s₀], summed in pole
    order; the [×s] gain multiplies the sum by [s]. *)

val poles : t -> Complex.t array
(** The poles in physical [s]: [pₖ + s₀]. *)
