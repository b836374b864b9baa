(** Pole/residue form and stabilising post-processing.

    The paper notes (Section 5) that for general RLC circuits the
    Padé-based model is not guaranteed stable/passive but "can be made
    stable and passive by a suitable post-processing"; this module
    implements the standard such step: diagonalise the reduced pencil
    into a pole/residue expansion

      [Zₙ(σ) = Σ_k R_k / (1 + σλ_k)]   (rank-one [p×p] residues)

    and discard (or reflect) the terms whose physical pole lies in the
    right half-plane. Discarding a nearly-converged spurious pole
    perturbs the response by [O(|R|)] of that term, which is small
    exactly when the model was "almost stable" in the paper's sense. *)

type term = {
  lambda : Complex.t;  (** Eigenvalue of [Tₙ]. *)
  pole : Complex.t;  (** Physical pole location. *)
  residue_l : Complex.t array;  (** Left residue vector (length p). *)
  residue_r : Complex.t array;  (** Right residue vector: [R = l·rᵀ]. *)
}

type t = {
  terms : term list;
  direct : Linalg.Cmat.t;  (** Constant term (from dropped zero eigenvalues). *)
  p : int;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
}

exception Defective
(** [Tₙ] could not be numerically diagonalised (a genuinely defective
    or pathologically clustered spectrum). *)

val of_model : Model.t -> t
(** Diagonalise. The definite case reads the terms off the model's
    {!Realisation.Modal} form (no second decomposition); the
    indefinite case takes complex eigenvalues + inverse iteration. *)

val eval : t -> Complex.t -> Linalg.Cmat.t
(** Evaluate at physical [s]. *)

val stabilized : t -> t * int
(** Drop right-half-plane pole terms; returns the new expansion and
    the number of removed terms. *)

val is_stable : t -> bool

val step_response : t -> float -> Linalg.Mat.t
(** [step_response pr t] — the analytic time-domain response
    [v(t) = direct + Σ_k R_k·(1 − e^{−t/λ_k})] of the port voltages to
    unit current steps (one column per driven port). Only for real
    stable expansions of [s]-variable models with zero shift; raises
    [Invalid_argument] otherwise. This closed form is what eq. (23)
    integrates numerically. *)
