(** AWE: asymptotic waveform evaluation (Pillage–Rohrer [13]) —
    explicit-moment Padé approximation of a single transfer-function
    entry.

    This is the baseline the Lanczos-based methods replace: the Padé
    coefficients are computed from explicitly generated moments via a
    Hankel system, which is exponentially ill-conditioned in the
    order. It works for small orders (≲ 8–10) and then breaks down —
    the instability documented in [5] that motivates SyPVL/SyMPVL.
    Restricted to pencils in the [s] variable. *)

type t = {
  real : Realisation.t;
      (** The pole/residue form [Σ rₖ/(σ − pₖ)], [σ = s − s₀]: poles
          and residues in its {!Realisation.Foster} form (what {!Realisation.eval} sums), with
          its modal realisation — a 1×1 block per real pole, a 2×2
          rotation block per conjugate pair — for the certification
          pass. *)
  order : int;
  hankel_rcond : float;
      (** Reciprocal condition estimate of the Hankel system — watch
          it collapse as the order grows. *)
}

exception Breakdown of string
(** The Hankel system is numerically singular, or the order exceeds
    twice the pencil size (at most [2N] of the [2·order] moments are
    independent). *)

val build : ?ctx:Pencil.t -> ?shift:float -> order:int -> port:int -> Circuit.Mna.t -> t
(** [build ~order ~port m] computes the [order]-pole AWE model of
    [Z_port,port] from [2·order] explicit moments (solved through the
    shared pencil context; pass [ctx] to reuse a factorisation cached
    by another engine at the same shift). *)
