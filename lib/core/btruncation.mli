(** Balanced truncation for the symmetric definite (RC-class) pencil —
    a modern gold-standard baseline for the benches.

    For [G, C ≻ 0] the impedance system [Gx + Cẋ = Bi], [v = Bᵀx] is
    internally symmetric: after the congruence [x̃ = Lᶜᵀx] (Cholesky
    [C = LᶜLᶜᵀ]) it reads [ẋ̃ = −Ax̃ + B̃i], [v = B̃ᵀx̃] with [A ≻ 0]
    symmetric, so the controllability and observability Gramians
    coincide and balancing reduces to one symmetric Lyapunov solve
    plus one eigendecomposition. Truncating to the dominant Hankel
    singular values gives a provably stable, passive model with the
    classic a-priori H∞ bound [‖Z − Ẑ‖∞ ≤ 2·Σ(dropped σ)].

    Dense [O(N³)] — a quality yardstick for moderate N, not a
    replacement for the Krylov methods on large circuits. *)

type t = {
  real : Realisation.t;
      (** [B̂ᵀ(Â + s·I)⁻¹B̂] with the reduced symmetric [Â ≻ 0]: a
          definite congruence realisation ({!Realisation.congruence}). *)
  hsv : Linalg.Vec.t;  (** All [N] Hankel singular values, descending. *)
  error_bound : float;  (** [2·Σ] of the truncated tail. *)
}

exception Not_definite
(** The pencil is not symmetric positive definite (only the paper's
    RC/RL special cases with a nonsingular [G] qualify). *)

val reduce : order:int -> Circuit.Mna.t -> t
