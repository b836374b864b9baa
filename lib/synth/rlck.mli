(** RLCk re-synthesis of structure-preserving [`Sprim] models.

    This is the payoff of SPRIM's block congruence: because the
    reduced model keeps the node/current block structure with
    symmetric [Ĝn], [Ĉn], [ℒ̂] and a genuine incidence block [Â], its
    transfer function has the second-order susceptance form

      [Z(s) = s·B̂ᵀ(s²Ĉn + sĜn + Âᵀℒ̂⁻¹Â)⁻¹B̂],

    which is exactly the
    nodal analysis of an RLC netlist over [n₁] nodes. A port-aligning
    congruence within the node block ({!Multiport.port_aligning_transform},
    [B̂ᵀS₁ = [I_p 0]]) makes the first [p] states the port voltages,
    after which [D' = S₁ᵀĜnS₁] realises as resistors,
    [M' = S₁ᵀĈnS₁] as capacitors and the nodal susceptance
    [K' = S₁ᵀÂᵀℒ̂⁻¹ÂS₁] as branch inductors [L = 1/γ] — the same
    row-sum stamping as {!Multiport.synthesize}. The susceptance
    expansion folds the reduced mutual couplings of [ℒ̂] into the
    branch values exactly, so the output needs no K cards even though
    the input model is fully coupled; re-assembling the output with
    {!Circuit.Mna.assemble} reproduces [Z(s)] to [drop_tol].
    Elements may be negative-valued (expected, harmless for
    simulation — same caveat as the paper's Section 6 synthesis). *)

type stats = {
  nodes : int;  (** Total circuit nodes (ports + internal). *)
  resistors : int;
  capacitors : int;
  inductors : int;
  negative_elements : int;
  dropped_entries : int;  (** Matrix entries below [drop_tol]. *)
}

exception Not_synthesizable of string
(** Alias of {!Multiport.Not_synthesizable} — the two synthesis paths
    share one failure exception. *)

val synthesize :
  ?drop_tol:float ->
  port_names:string array ->
  Sympvl.Sprim.t ->
  Circuit.Netlist.t * stats
(** [synthesize ~port_names model] builds the equivalent RLC(k)
    netlist with one port per model port (named as given). [drop_tol]
    (default [1e-9], relative to the largest entry of each realised
    matrix) sparsifies the conductance/capacitance/susceptance
    stamps; the introduced error is of the same relative order.
    Raises {!Not_synthesizable} when [B̂] is rank-deficient or the
    reduced inductance block is not positive definite. *)
