(** The one Gram–Schmidt sweep of the Krylov engines.

    SyMPVL's band Lanczos (J-orthogonalisation of each new candidate
    against the closed clusters, and the Euclidean pass against the
    open one), PRIMA's block Arnoldi (both passes of its modified
    Gram–Schmidt, single- and multi-point) and SPRIM's Krylov phase
    all orthogonalise through {!sweep}.

    A sweep projects a vector against a sequence of {e blocks} in
    order. For each block it forms the (weighted) inner products of
    the block's members with the current vector, maps them to
    coefficients, and subtracts the members times those
    coefficients — exactly what a run of [Vec.dot3]/[Vec.dot] calls
    followed by [Vec.axpy] calls computes. The passes are fused: one
    unchecked pass over the vector applies block [g]'s updates and
    accumulates block [g+1]'s inner products on the updated entries.
    Every floating-point operation happens in the same order as in the
    unfused sequence, so the result is bit-identical to it. *)

type block = {
  vecs : Linalg.Vec.t array;  (** The members, each of the vector's length. *)
  coeffs : Linalg.Vec.t -> Linalg.Vec.t;
      (** Inner products with the members (in member order) to
          projection coefficients: [Fun.id] for an orthonormal
          member, the solve with the block's Gram matrix [Δ⁽ᵞ⁾] for a
          J-orthogonal Lanczos cluster. *)
}

val singleton : Linalg.Vec.t -> block
(** A one-member block whose coefficient is the inner product itself
    (modified Gram–Schmidt against a unit vector). *)

val sweep :
  ?weight:Linalg.Vec.t ->
  ?record:(int -> Linalg.Vec.t -> unit) ->
  block array ->
  Linalg.Vec.t ->
  unit
(** [sweep ?weight ?record blocks v] projects [v] in place against
    [blocks], in array order: for block [g] with members [qₖ],
    [dₖ = Σᵢ qₖ.(i)·w.(i)·v.(i)] (plain [Σᵢ qₖ.(i)·v.(i)] without
    [weight]), [c = coeffs d], [record g c], then
    [v ← v − Σₖ c.(k)·qₖ] member by member. When tracing, the member
    count is added to the [krylov.projections] counter. Raises
    [Invalid_argument] on a length mismatch. *)
