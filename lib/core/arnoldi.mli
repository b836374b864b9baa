(** Block-Arnoldi reduction with congruence projection — the
    coordinate-transformed Arnoldi alternative of Silveira et al. [16]
    (and of PRIMA), implemented as a baseline for the benches.

    An orthonormal basis [V] of the block Krylov space of
    [((G + s₀C)⁻¹C, (G + s₀C)⁻¹B)] is built by block Arnoldi with full
    modified Gram–Schmidt; the reduced model is the congruence
    projection [Ĝ = VᵀGV], [Ĉ = VᵀCV], [B̂ = VᵀB]. It matches only
    [⌊n/p⌋] moments (half of SyMPVL's Padé count) but preserves
    semi-definiteness of [G] and [C] by congruence. *)

type t = Realisation.t
(** The congruence projection [(Ĝ, Ĉ, B̂)] as [a0 = Ĝ], [a1 = Ĉ],
    [b = B̂], [c = B̂ᵀ] in the physical pencil variable
    ({!Realisation.congruence}); [order] is the basis size. *)

val reduce :
  ?ctx:Pencil.t -> ?shift:float -> ?band:float * float -> order:int -> Circuit.Mna.t -> t
(** Reduce to (at most) the given order; the basis may saturate
    earlier if the Krylov space is exhausted. Shift resolution is
    {!Pencil.with_auto_shift}, so PRIMA expands about the exact same
    point {!Reduce} (SyMPVL) would pick — explicit [shift] wins,
    otherwise 0 with the band-guided/heuristic retry when [G] is
    singular. Pass [ctx] to share one context across engines. *)

val krylov_basis :
  order:int -> solve:(Linalg.Vec.t -> Linalg.Vec.t) -> Circuit.Mna.t -> Linalg.Mat.t
(** [krylov_basis ~order ~solve m] — the block-Arnoldi basis [V]
    ([N × k], [k ≤ order] orthonormal columns) of the Krylov space of
    [(K⁻¹C, K⁻¹B)] with [solve x = K⁻¹x]: two passes of modified
    Gram–Schmidt per candidate through {!Ortho.sweep}, candidates that
    shrink below [1e-10] of their norm dropped. PRIMA's and SPRIM's
    first phase. *)

val reduce_multipoint : ?ctx:Pencil.t -> points:(float * int) list -> Circuit.Mna.t -> t
(** Rational (multi-point) Krylov reduction — the natural extension of
    the single-expansion method (complex-frequency-hopping style,
    listed as future work in the Padé line). [points] gives
    [(s₀, k)] pairs in the pencil variable: [k] block-Krylov steps of
    [((G + s₀C)⁻¹C, (G + s₀C)⁻¹B)] are generated at each shift and the
    union basis is orthonormalised before the congruence projection.
    By symmetry the model interpolates ≈ [2k] moments {e at every
    shift}, trading depth at one point for wideband coverage. The
    [shift] field of the result holds the first point. *)

val shift_of_hz : Circuit.Mna.t -> float -> float
(** Convert a frequency in Hz to an expansion point in the pencil
    variable ([2πf], squared for the LC [s²] form). *)
