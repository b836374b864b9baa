(** Modified nodal analysis (MNA) assembly.

    Builds the symmetric matrix pencil [(G, C)] and terminal incidence
    [B] of the paper's eq. (3), either in the general RLC form (node
    voltages plus inductor currents as unknowns) or in the specialised
    positive-semi-definite forms for RC, RL and LC circuits
    (Section 2.2). The multi-port transfer function is

      [Z(s) = Bᵀ (G + sC)⁻¹ B]              (general RLC, RC)
      [Z(s) = s · Bᵀ (G + sC)⁻¹ B]          (RL, eq. (7))
      [Z(s) = s · Bᵀ (G + s²C)⁻¹ B]         (LC, eq. (9))

    The [gain] field records which of these applies. *)

type gain =
  | Unit  (** [Z = BᵀK⁻¹B] directly. *)
  | Times_s  (** Multiply by [s] after evaluation (RL and LC forms). *)

type variable =
  | S  (** Pencil in [s]. *)
  | S_squared  (** Pencil in [σ = s²] (LC form, eq. (9)). *)

type t = {
  n : int;  (** Pencil dimension. *)
  n_nodes : int;  (** Leading node-voltage unknowns. *)
  g : Sparse.Csr.t;  (** Symmetric [G]. *)
  c : Sparse.Csr.t;  (** Symmetric [C]. *)
  b : Linalg.Mat.t;  (** [n × p] terminal incidence. *)
  port_names : string array;
  gain : gain;
  variable : variable;
  spd : bool;
      (** True when both [G] and [C] are positive semi-definite by
          construction (RC/RL/LC forms) — the provably stable/passive
          path of Section 5. *)
}

val assemble : Netlist.t -> t
(** General RLC form (eq. (3)): unknowns are node voltages followed by
    inductor currents; [G], [C] symmetric indefinite. Requires a
    linear RLC netlist with at least one port; raises
    {!Diagnostic.User_error} otherwise, naming the first offending
    element with its source line when available. *)

val assemble_rc : Netlist.t -> t
(** RC form: [G = Aᵍᵀ𝒢Aᵍ], [C = Aᶜᵀ𝒞Aᶜ], both PSD. Rejects netlists
    containing inductors. *)

val assemble_rl : Netlist.t -> t
(** RL form (eq. (7)): [G = Aˡᵀℒ⁻¹Aˡ], [C = Aᵍᵀ𝒢Aᵍ], both PSD;
    [Z(s) = s·Bᵀ(G+sC)⁻¹B]. Rejects capacitors. *)

val assemble_lc : Netlist.t -> t
(** LC form (eq. (9)): [G = Aˡᵀℒ⁻¹Aˡ], [C = Aᶜᵀ𝒞Aᶜ], both PSD, pencil
    in [σ = s²]; [Z(s) = s·Bᵀ(G+s²C)⁻¹B]. Rejects resistors. *)

val auto : Netlist.t -> t
(** Dispatch on {!Netlist.classify}: the specialised PSD form when the
    topology allows it, the general form otherwise. *)

val pencil_pattern : t -> Sparse.Csr.t
(** The union sparsity pattern of [G] and [C] (all values 1): the
    structure of [G + sC] for generic [s ≠ 0], exactly as stamped —
    entries that happen to cancel numerically are still structural
    nonzeros. This is what the structural analyzer
    ([Analysis.Struct_rules], [symor analyze]) certifies solvability
    and predicts factorisation fill on. *)

val unknown_label : t -> int -> string
(** Human-readable label of pencil row/column [row]:
    ["node-voltage unknown k"] (1-based MNA node index) for the
    leading [n_nodes] rows, ["inductor-current unknown k"] for the
    trailing ones. Use [Analysis.Struct_rules] when the netlist is
    available — it resolves actual node names and source lines. *)

val inductance_matrix : Netlist.t -> Linalg.Mat.t
(** The (dense) inductance matrix [ℒ] including mutual couplings, in
    {!Netlist.inductors} order. Symmetric positive definite for
    [|k| < 1]. *)

val observe_inductor_current : Netlist.t -> t -> string -> Linalg.Vec.t
(** [observe_inductor_current nl mna l_name] is a vector [w] of length
    [mna.n] such that [wᵀ x] reproduces the current through the named
    inductor:

    - general RLC form: the canonical basis vector selecting that
      inductor-current unknown;
    - LC form: [Aˡᵀ ℒ⁻¹ b] with [b] selecting the inductor — the
      column the paper appends to [B] for the PEEC two-port output
      ([l] in Section 7.1).

    Raises {!Diagnostic.User_error} for the RC/RL forms. *)

val append_output_column : t -> Linalg.Vec.t -> string -> t
(** Widen [B] with an extra observation column (generalised port). *)

(** {1 Second-order structure}

    Eliminating the inductor currents from the general RLC form yields
    the quadratic (second-order) pencil of Freund's SPRIM line of
    work:

      [(s²M + sD + K)·v = s·B·u],   [Z(s) = s·Bᵀ(s²M + sD + K)⁻¹B]

    with [M = Aᶜᵀ𝒞Aᶜ] (nodal capacitance), [D = Aᵍᵀ𝒢Aᵍ] (nodal
    conductance) and [K = Aˡᵀℒ⁻¹Aˡ] (nodal inductive susceptance,
    mutual k-couplings folded into [ℒ]). It is never assembled: the
    structure-preserving [`Sprim] engine and RLCk re-synthesis work
    on the general form {!assemble}, whose node/current block split
    carries the same structure with [ℒ] stamped sparsely. *)

type second_order_stats = {
  inductor_loops : int;
      (** Independent cycles in the inductor subgraph (ground
          included) — each closes an inductor loop that the
          susceptance form resolves through [ℒ⁻¹]. *)
  coupling_density : float;
      (** K cards over inductor pairs: [mutuals / (ni·(ni−1)/2)]. *)
  chosen_form : string;
      (** Human-readable name of the MNA form {!auto} would pick. *)
}

val second_order_stats : Netlist.t -> second_order_stats
(** Second-order structure report used by [symor info] / [symor
    analyze]. *)
