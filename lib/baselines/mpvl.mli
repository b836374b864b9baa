(** MPVL — matrix-Padé via a (two-sided) block Lanczos process.

    The paper's predecessor algorithm (Feldmann & Freund, DAC 1995,
    ref. [6]): a matrix-Padé approximant of [Z(s) = Bᵀ(G + sC)⁻¹B]
    computed with a {e two-sided} block Krylov process that makes no
    use of symmetry. SyMPVL is its symmetric specialisation — at
    roughly half the work and memory, which is this module's role in
    the benches: validate that both compute the same approximant on
    symmetric input, and quantify SyMPVL's advantage ([bench tabG],
    [examples/compare_methods.ml]). It is not a {!Sympvl.Rom} engine.

    This implementation biorthogonalises fully against all previous
    vectors (numerically robust; identical output in exact
    arithmetic) and deflates dependent candidates, but implements no
    look-ahead: an exact biorthogonality breakdown raises
    {!Breakdown} (SyMPVL's cluster look-ahead is one of the paper's
    refinements over this baseline). *)

type t = {
  real : Sympvl.Realisation.t;
      (** [Zₙ = ηᵀ(I + σT)⁻¹D⁻¹μ] with [T = D⁻¹WᵀAV], [D = WᵀV],
          [μ = Wᵀ(K⁻¹B)], [η = VᵀB]: [a0 = I], [a1 = T], [b = D⁻¹μ],
          [c = ηᵀ] about [origin = s₀], in
          {!Sympvl.Realisation.general_form}; no symmetric form. *)
  deflations : int;
}

exception Breakdown of int
(** Exact biorthogonality breakdown at the reported step (would need
    look-ahead). *)

val reduce : ?band:float * float -> order:int -> Circuit.Mna.t -> t
(** Reduce to (at most) the requested order. Shift resolution is
    {!Sympvl.Pencil.with_auto_shift} — the same policy as
    {!Sympvl.Reduce.mna}: 0, with band-guided automatic retry when
    [G] is singular. A candidate pair is deflated when biorthogonalisation
    leaves either vector below 1e-8 of its norm. *)
