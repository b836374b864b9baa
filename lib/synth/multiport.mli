(** Multiport reduced-circuit synthesis (paper Section 6).

    Realises the symmetric form [(h0, h1, w)] of the model's
    realisation ([Z = wᵀ(h0 + s·h1)⁻¹w], the reduced pencil of
    eq. (23)) as an RC netlist with no controlled sources. A
    congruence [x = S z] with [wᵀS = [I_p 0]] turns the first [p]
    states into the port voltages themselves; the transformed
    [Sᵀh0S] / [Sᵀh1S] matrices are then
    realised entry-by-entry as (possibly negative-valued) resistors
    and capacitors between state nodes — a generalisation of the
    Cauer-form synthesis that the paper refers to. Only definite
    [s]-variable models are supported (the RC/RL cases with expansion
    at 0). *)

type stats = {
  nodes : int;  (** Total circuit nodes (ports + internal). *)
  resistors : int;
  capacitors : int;
  negative_elements : int;
  dropped_entries : int;  (** Matrix entries below [drop_tol]. *)
}

exception Not_synthesizable of string

val port_aligning_transform : Linalg.Mat.t -> Linalg.Mat.t
(** [port_aligning_transform rho] for an [n × p] full-column-rank
    [rho] is the [n × n] congruence [S] with [ρᵀS = [I_p 0]]: after
    [x = S z] the first [p] transformed states are the port voltages
    themselves. Shared with the RLCk path ({!Rlck}). Raises
    {!Not_synthesizable} when [rho] is rank-deficient. *)

val synthesize :
  ?drop_tol:float -> port_names:string array -> Sympvl.Model.t ->
  Circuit.Netlist.t * stats
(** [synthesize ~port_names model] builds the equivalent netlist with
    one port per model port (named as given). [drop_tol] (default
    [1e-9], relative to the largest matrix entry) sparsifies the
    realised conductance/capacitance matrices; the introduced error
    is of the same relative order. *)
