(** Reduced-order models produced by SyMPVL.

    A model holds the projected matrices of eq. (19),

      [Zₙ(σ) = ρₙᵀ Δₙ (Iₙ + σTₙ)⁻¹ ρₙ],

    together with the bookkeeping needed to map the pencil variable
    [σ] back to physical frequency: the expansion shift [s₀]
    ([σ = var − s₀], eq. (26)), the pencil variable ([s] or [s²],
    Section 2.2) and the RL/LC gain factor [s]. *)

type t = {
  t_mat : Linalg.Mat.t;  (** [n × n]: [Tₙ]. *)
  delta : Linalg.Mat.t;  (** [n × n] block diagonal: [Δₙ] (identity in the definite case). *)
  rho : Linalg.Mat.t;  (** [n × p]: [ρₙ] zero-padded. *)
  order : int;
  p : int;
  shift : float;  (** Expansion point [s₀] in the pencil variable. *)
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
  definite : bool;  (** Built with [J = I] (stable/passive guarantee). *)
  deflations : int;
  look_ahead_steps : int;
  exhausted : bool;
  real : Realisation.t;
      (** The model as a descriptor form: [a0 = I], [a1 = Tₙ], [b = ρₙ],
          [c = ρₙᵀΔₙ] about [origin = s₀], with the symmetric form
          [(Δₙ − s₀ΔₙTₙ, ΔₙTₙ, Δₙρₙ)] when [Δₙ] and [ΔₙTₙ] are
          symmetric, and its {!Realisation.Modal} form when
          [definite] (else the {!Realisation.general_form}). Evaluate, certify and stamp through it. *)
}

val make :
  t_mat:Linalg.Mat.t ->
  delta:Linalg.Mat.t ->
  rho:Linalg.Mat.t ->
  shift:float ->
  variable:Circuit.Mna.variable ->
  gain:Circuit.Mna.gain ->
  definite:bool ->
  deflations:int ->
  look_ahead_steps:int ->
  exhausted:bool ->
  t
(** Assemble a model (order and port count from the shapes of [t_mat]
    and [rho]) together with its {!Realisation.t}. *)

val moments : t -> int -> Linalg.Mat.t array
(** First [k] moments of the reduced model about the expansion point:
    [(−1)ᵏ ρᵀ Δ Tᵏ ρ]. *)

val truncate : t -> int -> t
(** Restrict to a smaller order: {!make} on the leading submatrices,
    so the result (modal form included) is the one a fresh run of that
    order builds. Only sound at cluster boundaries; with [J = I] every
    order is a boundary. *)
