(** Engine registry: one front door for every reduction algorithm.

    Every model-order-reduction engine of the product — the paper's
    SyMPVL band-Lanczos, PRIMA block-Arnoldi, structure-preserving
    SPRIM and dense balanced truncation — is reachable here behind a
    single [reduce] entry point, so the CLI, the daemon, the tests and
    the benches can enumerate and compare them uniformly. The paper's
    foils, AWE and two-sided MPVL, live in the [baselines] library
    and are run only by the benches, the examples and the tests. Each engine's model carries the one
    descriptor form it reduces to ({!Realisation.t}, built once at
    reduce time); {!eval}, {!order}, {!ports}, {!shift} and {!Certify}
    all read that form. All Krylov engines share one {!Pencil} context
    (and therefore one symbolic phase, one factor cache and one eq.-26
    shift policy); pass [?ctx] to share it with exact AC analysis or
    moment checks too. *)

type engine = [ `Sympvl | `Prima | `Sprim | `Bt ]

val all : engine list
(** Every registered engine, in documentation order. *)

val name : engine -> string
val of_name : string -> engine option
(** Case-insensitive; accepts the aliases [arnoldi] (PRIMA) and
    [balanced]/[truncation] (BT). *)

val describe : engine -> string
(** One-line summary of the algorithm and its guarantees, as printed
    by [symor reduce --engine help] and the README table. The
    guarantees are not taken on faith: [symor certify]
    ({!Certify.run}) re-derives each claim — stability, passivity,
    moment matching — on the model the engine actually produced,
    through its {!Realisation.t}. *)

val golden_rtol : engine -> float
(** Documented worst-case relative deviation from the exact AC golden
    fixtures on the shipped example netlists' 16-point grid at the
    orders the cross-engine golden test requests (Krylov engines near
    exhaustion). *)

val supports : engine -> Circuit.Mna.t -> (unit, string) result
(** Structural applicability of an engine to an assembled pencil:
    SPRIM needs
    the general RLC form with a non-empty inductor-current block (the
    structure it preserves); balanced truncation needs the symmetric
    positive definite RC impedance form. [Error reason] explains the
    mismatch in one sentence. *)

type model =
  | Sympvl_model of Model.t
  | Prima_model of Arnoldi.t
  | Sprim_model of Sprim.t
  | Bt_model of Btruncation.t

exception Unsupported of string
(** Raised by {!reduce} when {!supports} says no. *)

val reduce :
  ?ctx:Pencil.t ->
  ?shift:float ->
  ?band:float * float ->
  order:int ->
  engine ->
  Circuit.Mna.t ->
  model
(** Run one engine at the library defaults ({!Reduce.default} for
    SyMPVL). [shift] is an explicit expansion point
    [s₀] (no singular-G retry); [band] (Hz) picks the automatic
    mid-band shift. The shared [ctx] is threaded to every
    pencil-backed engine; balanced truncation is dense and ignores it.

    @raise Unsupported when the engine does not apply to [m].
    @raise Factor.Singular as the underlying engine would. *)

val realisation : model -> Realisation.t
(** The descriptor form the engine built at reduce time (a field
    read). *)

val eval : model -> Complex.t -> Linalg.Cmat.t
(** Reduced-order [Ẑ(s)] at a physical complex frequency, uniformly a
    [p×p] matrix: {!Realisation.eval} of
    {!realisation}. *)

val order : model -> int
val ports : model -> int

val shift : model -> float
(** Expansion point actually used ([0.] for balanced truncation,
    which has none). *)

val engine_of_model : model -> engine

val expected_moments : model -> int
(** The number of matrix moments the algorithm matches by
    construction at its expansion point: [2⌊n/p⌋] for SyMPVL's
    Lanczos process (paper Section 3.2), [⌊n/p⌋] for
    PRIMA's one-sided congruence, [⌊krylov_cols/p⌋] for SPRIM (its
    split basis spans at least PRIMA's projection subspace at the same
    Krylov depth), and [0] for balanced truncation (which optimises the H∞ error,
    not moments). [Certify] verifies this count against
    {!Moments.exact} (rule MOD005). *)
