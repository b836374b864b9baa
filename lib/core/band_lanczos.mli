(** Symmetric band-Lanczos process with deflation and cluster
    look-ahead — Algorithm 1 of the paper.

    Given the J-symmetric operator [F = J⁻¹M⁻¹CM⁻ᵀ] and the starting
    block [R = J⁻¹M⁻¹B] (p columns), the process builds Lanczos
    vectors [v₁ … vₙ] spanning the block Krylov space of [(F, R)],
    J-orthogonal cluster-wise:

      [VₙᵀJVₙ = Δₙ]  (block diagonal),
      [F Vₙ = Vₙ Tₙ + (candidate residuals)],
      [R = V·ρ]  (ρ from the initial orthogonalisation).

    Candidates whose norm collapses under [dtol] are {e deflated}
    (they are numerically dependent on the span); when [J] is
    indefinite a cluster stays open ({e look-ahead}) until its Gram
    block [Δ^(γ)] is safely nonsingular. In the definite case
    ([J = I]) every cluster is a singleton, [Δₙ = I], and [Tₙ] is
    symmetric banded. *)

type result = {
  basis : Linalg.Vec.t array;
      (** The [n] Lanczos vectors [v₁ … vₙ] as the process stored them
          (no [N × n] copy is made; [Linalg.Mat] callers set them as
          columns). *)
  t_mat : Linalg.Mat.t;  (** [n × n] projected operator [Tₙ]. *)
  delta : Linalg.Mat.t;  (** [n × n] block-diagonal [Δₙ]. *)
  rho : Linalg.Mat.t;  (** [n × p]: [ρₙ] already zero-padded. *)
  p1 : int;  (** Accepted starting vectors ([≤ p]). *)
  order : int;  (** Achieved order [n]. *)
  deflations : int list;  (** Iterations at which a deflation occurred. *)
  n_clusters : int;
  look_ahead_steps : int;  (** Iterations spent inside open clusters. *)
  exhausted : bool;
      (** The block size collapsed to zero, or the order reached [N]:
          the Krylov space is exhausted and [Zₙ = Z] exactly. *)
}

val run :
  ?dtol:float ->
  ?ctol:float ->
  ?full_ortho:bool ->
  n_max:int ->
  op:(Linalg.Vec.t -> Linalg.Vec.t) ->
  j:float array ->
  start:Linalg.Mat.t ->
  unit ->
  result
(** [run ~n_max ~op ~j ~start ()] performs at most [min n_max N]
    iterations ([N] the vector length: the Krylov dimension). Every
    (J-)orthogonalisation goes through {!Ortho.sweep}; [op] is
    applied once per iteration.

    - [dtol] (default [1e-8]): relative deflation tolerance — a
      candidate is deflated when orthogonalisation shrinks it below
      [dtol] times its original norm.
    - [ctol] (default [1e-10]): cluster-closing threshold on the
      reciprocal condition of [Δ^(γ)].
    - [full_ortho] (default [true]): J-orthogonalise new candidates
      against {e all} closed clusters (numerically robust full
      reorthogonalisation). With [false], only the paper's sliding
      window [γ_v … γ−1] plus inexact-deflation clusters is used —
      the cost model of Algorithm 1. The window costs accuracy once
      J-orthogonality is lost: on a coupled RC bus (8 wires × 50
      sections, 1 kΩ terminations, p = 8) at order 128 its model is
      1.8e-9 off the exact sweep over 10 MHz–10 GHz, against 2.8e-13
      with full reorthogonalisation (bench [tabF] F1); on the 64-pin
      package at orders 32 and 64 the two modes agree. *)
