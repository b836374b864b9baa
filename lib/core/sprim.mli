(** SPRIM — structure-preserving reduced-order interconnect
    macromodeling (Freund's second-order line of work, math/0410195).

    PRIMA projects the general RLC pencil with one orthonormal Krylov
    basis [V] and loses the 2×2 block structure of

      [G = [[Gn, Aᵀ]; [A, 0]]],   [C = [[Cn, 0]; [0, −ℒ]]]

    (node voltages over inductor currents). SPRIM instead {e splits}
    the same basis at the node/current boundary, re-orthonormalises
    the two parts [V₁] (nodes) and [V₂] (currents), and projects with
    the block-diagonal congruence [blkdiag(V₁, V₂)]:

      [Ĝn = V₁ᵀGnV₁], [Â = V₂ᵀAV₁], [Ĉn = V₁ᵀCnV₁], [ℒ̂ = V₂ᵀℒV₂],
      [B̂ = V₁ᵀB].

    Because [span(blkdiag(V₁,V₂)) ⊇ span(V)], the reduced model
    matches at least as many moments as PRIMA at the same Krylov
    depth, and because the projection is a block congruence of a
    passive descriptor, the reduced model inherits symmetry, the
    block structure {e and} passivity by construction — which is also
    what makes RLCk re-synthesis ({!Synth.Rlck} in the synth library)
    possible. Eliminating the reduced current block recovers the
    second-order susceptance form
    [Z(s) = s·B̂ᵀ(s²Ĉn + sĜn + Âᵀℒ̂⁻¹Â)⁻¹B̂]. *)

type t = {
  gn : Linalg.Mat.t;  (** [Ĝn] — reduced nodal conductance, symmetric. *)
  cn : Linalg.Mat.t;  (** [Ĉn] — reduced nodal capacitance, symmetric. *)
  a : Linalg.Mat.t;  (** [Â] — reduced inductor incidence, [n2 × n1]. *)
  lmat : Linalg.Mat.t;  (** [ℒ̂] — reduced inductance, symmetric. *)
  bn : Linalg.Mat.t;  (** [B̂] — reduced terminal incidence, [n1 × p]. *)
  n1 : int;  (** Node-block dimension (rank of the split basis top). *)
  n2 : int;  (** Current-block dimension. *)
  krylov_cols : int;
      (** Columns of the underlying Krylov basis before the split —
          the moment count matched is ≥ [krylov_cols / p] (the PRIMA
          floor). *)
  real : Realisation.t;
      (** The re-assembled first-order blocks [Ĝ = [[Ĝn, Âᵀ]; [Â, 0]]],
          [Ĉ = [[Ĉn, 0]; [0, −ℒ̂]]], [B̂ = [[B̂n]; [0]]] as a congruence
          realisation ({!Realisation.congruence}) in [s] with unit
          gain; its order is [n1 + n2]. *)
}

val reduce :
  ?ctx:Pencil.t ->
  ?shift:float ->
  ?band:float * float ->
  order:int ->
  Circuit.Mna.t ->
  t
(** Reduce the general RLC form to (at most) [order] Krylov columns
    before the split (the final dimension [n1 + n2] can reach twice
    that, and saturates at the full model). Shift resolution is
    {!Pencil.with_auto_shift}, identical to every other engine; pass
    [ctx] to share the factorisation context. Raises
    [Invalid_argument] unless the model is the general form
    ([variable = S], [gain = Unit]) with a non-empty inductor-current
    block — {!Rom.supports} reports the reason first. *)

val structure_error : t -> float
(** Largest relative asymmetry over [Ĝn], [Ĉn], [ℒ̂] — exactly 0.0 up
    to the explicit symmetrisation of the congruence blocks; the
    bench gate pins it. *)
