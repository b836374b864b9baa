(** Symmetric skyline (envelope) LDLᵀ factorisation.

    Stores, for each row, the contiguous segment from the first
    structurally nonzero column up to the diagonal. LDLᵀ fill-in is
    confined to this envelope, so after an RCM pre-ordering the
    factorisation of MNA matrices is cheap.

    The factorisation is generic over the scalar field: {!Real} works
    on [G(+s₀C)] (symmetric real, possibly indefinite — no pivoting
    is performed, so genuinely ill-ordered saddle points may raise
    [Singular]; apply a shift as the paper does), while {!Complex_sym}
    factors the *complex symmetric* (not Hermitian) matrices
    [(G + sC)] arising in AC analysis. *)

exception Singular of int

module type FIELD = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val abs : t -> float
end

module type SOLVER = sig
  type elt
  (** The scalar field. *)

  type t
  (** A factored matrix [A = L D Lᵀ] within the envelope. *)

  val factor :
    ?pivot_tol:float -> n:int -> first:int array -> get:(int -> int -> elt) -> unit -> t
  (** [factor ~n ~first ~get ()] factors the symmetric matrix whose
      lower-envelope rows span columns [first.(i) .. i]; [get i j]
      yields entry (i, j) for [j ≤ i]. Raises {!Singular} when a
      diagonal pivot falls below [pivot_tol] (relative, default
      [1e-14]) times the largest diagonal magnitude. *)

  val dim : t -> int

  val solve : t -> elt array -> elt array
  (** Solve [A x = b]. *)

  val solve_lower : t -> elt array -> unit
  (** Forward substitution with the unit-lower factor [L] only, in
      place: overwrites [x] with [L⁻¹x]. *)

  val solve_lower_t : t -> elt array -> unit
  (** Back substitution with [Lᵀ] only, in place: overwrites [x] with
      [L⁻ᵀx]. *)

  val d : t -> elt array
  (** The diagonal of [D]. *)

  val fill : t -> int
  (** Stored envelope size (profile), a cost measure. *)
end

module Make (F : FIELD) : SOLVER with type elt = F.t

module Real : SOLVER with type elt = float

module Complex_sym : SOLVER with type elt = Complex.t

val envelope_of_csr : Csr.t -> int array
(** First-nonzero-column array (clipped to the diagonal) of a
    symmetric CSR matrix — the [first] argument for [factor]. *)

type pencil_env = {
  pe_n : int;
  pe_first : int array;  (** Merged [G]/[C] envelope. *)
  pe_g : float array array;
      (** Row [i] holds [G(i, first.(i) .. i)], diagonal in the last slot. *)
  pe_c : float array array;  (** [C], same layout. *)
}
(** Symbolic phase of a pencil factorisation: the merged envelope of
    [G] and [C] with both matrices pre-scattered into envelope-aligned
    rows. Computed once, it makes every subsequent numeric
    factorisation of [G + sC] free of pattern analysis and of
    per-entry {!Csr.get} row searches. *)

val pencil_env : Csr.t -> Csr.t -> pencil_env
(** [pencil_env g c] — one pass over each matrix's stored entries. *)

val factor_real : ?pivot_tol:float -> Csr.t -> Real.t
(** Convenience: envelope + factor of a symmetric real CSR matrix.
    Assembly reads pre-scattered envelope rows (no [Csr.get]). *)

val factor_pencil_real :
  ?pivot_tol:float -> ?extra:(int * int * float) array -> pencil_env -> float -> Real.t
(** [factor_pencil_real env s0] is the numeric phase of a real
    shifted-pencil factorisation [G + s₀C = L D Lᵀ] against a reused
    symbolic phase: assembly reads the pre-scattered envelope rows, so
    repeated factorisations at different shifts share one pattern
    analysis. Optional [extra] entries [(i, j, v)] (either triangle;
    positions must lie inside the envelope — widen with {!widen_env}
    first if needed) are accumulated onto the assembled matrix, which
    lets the transient engine poke Newton-Jacobian stamps without
    rebuilding a CSR. Raises [Invalid_argument] on an out-of-envelope
    extra entry and {!Singular} on pivot breakdown. *)

val widen_env : pencil_env -> int array -> pencil_env
(** [widen_env env extra_first] returns a copy of [env] whose row [i]
    spans down to [min env.pe_first.(i) extra_first.(i)], left-padding
    the scattered [G]/[C] rows with structural zeros. Use it to make
    room for {!factor_pencil_real}'s [extra] entries that fall outside
    the linear pencil's envelope. *)

val factor_complex :
  ?pivot_tol:float -> Complex.t -> Csr.t -> Csr.t -> Complex_sym.t
(** [factor_complex s g c] factors [G + sC] (complex symmetric). The
    envelope is the union of both patterns. Delegates to
    {!factor_complex_env} on a freshly built {!pencil_env}. *)

val factor_complex_env :
  ?pivot_tol:float -> pencil_env -> Complex.t -> Complex_sym.t
(** Numeric phase against a reused symbolic phase — the boxed
    reference kernel ({!Complex_sym}). *)

(** Split-complex (structure-of-arrays) specialisation of
    {!Complex_sym}: the same LDLᵀ recurrences with re/im stored in
    separate unboxed [float array]s. This is the AC-path production
    kernel; {!Complex_sym} remains the oracle it is tested against. *)
module Complex_soa : sig
  type t

  val factor_pencil : ?pivot_tol:float -> pencil_env -> Complex.t -> t
  (** Factor [G + sC] from a precomputed symbolic phase. Raises
      {!Singular} under the same relative pivot test as the generic
      kernel. *)

  val solve_split : t -> float array -> float array -> unit
  (** [solve_split fac re im] solves [A x = b] in place on the split
      right-hand side ([re], [im]). *)

  val dim : t -> int

  val d : t -> Complex.t array
  (** The diagonal of [D]. *)

  val fill : t -> int
end
