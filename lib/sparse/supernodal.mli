(** Left-looking supernodal sparse LDLᵀ with dense BLAS-style panel
    kernels — the scattered-sparsity backend.

    Where {!Skyline} stores each row's contiguous envelope segment
    (the right shape after an {!Rcm} ordering), this module groups
    columns with nested factor structure — {e fundamental supernodes}
    — into dense row-major [len×w] panels and runs the factorisation
    as dot-product kernels on contiguous float arrays. Combined with
    an {!Amd} fill-reducing ordering (whose scattered sparsity an
    envelope cannot represent), it is the backend that scales to the
    10⁵-unknown circuits the paper's reduction targets; the skyline
    kernel remains the accuracy oracle it is tested against.

    The symbolic phase is exact: the stored factor nonzero count
    equals {!Etree.predicted_nnz} of the input pattern — no padding,
    no overallocation.

    Input matrices must already be permuted by a fill-reducing
    ordering composed with an elimination-tree postorder — {!order}
    builds exactly that — since the postorder is what makes every
    fundamental supernode a contiguous column range. *)

exception Singular of int
(** Pivot breakdown at the given (permuted) column, same relative
    test as {!Skyline.Singular}. *)

type symbolic
(** The symbolic phase of a pencil factorisation: supernode
    partition, per-supernode row patterns, and [G]/[C] pre-scattered
    into panel slots, so every numeric factorisation of [G + s₀C] is
    free of pattern analysis. Immutable and shareable across shifts
    and threads. *)

val order : ?c:Csr.t -> ?late:int -> ?early:int -> Csr.t -> int array
(** [order ?c ?late ?early g] — the ordering this backend wants: {!Amd.order}
    of the merged [G]/[C] pattern composed with the elimination-tree
    postorder of the AMD-permuted pattern. Returns [perm] in the
    {!Csr.permute_sym} convention ([perm.(new_index) = old_index]);
    the postorder composition leaves the factor nonzero count of the
    AMD ordering unchanged.

    With [late], every index [v >= late] is eliminated after all of
    its pattern neighbours below [late]: the AMD order is first
    deferred (each such [v] moves to just after its last earlier
    neighbour, everything else keeps its relative order), and the
    postorder keeps the constraint because a later-eliminated
    neighbour is an elimination-tree ancestor. This is the
    current-after-node order the general RLC pencil needs at
    [s₀ = 0].

    With [early], the mirror: every index [v >= early] is eliminated
    before all of its pattern neighbours below [early] (the same
    deferral with the roles swapped: each index below [early] moves to
    just after its last neighbour at or above it), and the postorder
    keeps this constraint too, since those neighbours are
    elimination-tree ancestors of [v]. This
    is the current-before-node order the general RLC pencil needs at a
    real shift [s₀ > 0] and at [s = jω]: at any real [s₀ > 0] every
    leading block has a negative-definite [−s₀ℒ] part and a
    positive-definite node Schur complement, so the unpivoted
    [L D Lᵀ] exists with one negative pivot per current. Giving both
    [late] and [early] raises [Invalid_argument]. *)

val symbolic : ?extra_pattern:(int * int) array -> ?c:Csr.t -> Csr.t -> symbolic
(** [symbolic ?extra_pattern ?c g] — fundamental-supernode detection
    and symbolic factorisation of the merged (structural-union)
    pattern of [g] and [c], both already permuted; supernode width is
    capped at 128 columns. [extra_pattern] positions (permuted
    coordinates, either triangle) are merged into the pattern as
    structural zeros — how [Pencil.reserve] makes room for
    Newton-Jacobian stamps. Raises [Invalid_argument] on non-square or
    mismatched inputs. *)

val nnz : symbolic -> int
(** Stored lower-triangle factor nonzeros, diagonal included. Equals
    {!Etree.predicted_nnz} of the input pattern exactly. *)

val supernodes : symbolic -> int
val dim : symbolic -> int

type reach
(** The elimination-tree reach of a set of rows: the union of their
    etree ancestors (each row included), the only columns on which
    [L⁻¹b] can be nonzero when [b] is supported on those rows. Inside
    a supernode the parent of column [j] is [j + 1], and the parent of
    its last column is the panel's first below row, so the reach is a
    suffix of every supernode it meets; it is stored as one first
    local column per supernode. Immutable and shareable across
    threads. *)

val reach : symbolic -> int array -> reach
(** [reach sym rows] — the reach of [rows] (permuted coordinates, any
    order, repeats allowed) in [sym]'s elimination tree. Built once
    per symbolic phase; [Pencil] builds it over the port rows. Raises
    [Invalid_argument] on a row out of range. *)

val reach_columns : reach -> int array
(** The reach's columns, ascending (a copy). *)

(** Real factorisation of [G + s₀C] — the reduction and transient
    workhorse. *)
module Real : sig
  type t

  val factor : ?pivot_tol:float -> ?extra:(int * int * float) array -> symbolic -> float -> t
  (** [factor sym s0] — the numeric phase. Optional [extra] entries
      [(i, j, v)] (either triangle, permuted coordinates) are
      accumulated onto the assembled matrix — the transient engine's
      Newton-Jacobian stamps; an entry outside the factor pattern
      raises [Invalid_argument] (rebuild the symbolic phase with the
      stamp positions in the pattern instead). Raises {!Singular}
      when a pivot falls below [pivot_tol] (relative, default
      [1e-14]) times the largest assembled diagonal magnitude. *)

  val dim : t -> int

  val solve : t -> float array -> float array
  (** Solve [A x = b] (permuted coordinates). *)

  val solve_lower : t -> float array -> unit
  (** Forward substitution with the unit-lower factor [L] only, in
      place: overwrites [x] with [L⁻¹x]. *)

  val solve_lower_t : t -> float array -> unit
  (** Back substitution with [Lᵀ] only, in place: overwrites [x] with
      [L⁻ᵀx]. *)

  val d : t -> float array
  (** The diagonal of [D] (a copy). *)

  val fill : t -> int
  (** Stored factor nonzeros — the cost measure, comparable with
      {!Skyline.SOLVER.fill}. *)
end

(** Split-complex (structure-of-arrays) kernels for the AC path: the
    same supernodal recurrences on the complex-symmetric [G + sC]
    with re/im in separate unboxed float arrays.
    {!Skyline.Complex_sym} is the oracle they are tested against. *)
module Complex_soa : sig
  type t

  val factor : ?pivot_tol:float -> symbolic -> Complex.t -> t
  (** Factor [G + sC] from the shared symbolic phase. Raises
      {!Singular} under the same relative pivot test as {!Real}. *)

  val solve_split : t -> float array -> float array -> unit
  (** [solve_split fac re im] solves [A x = b] in place on the split
      right-hand side ([re], [im]). *)

  val transfer : t -> reach -> int array array -> float array array -> Linalg.Cmat.t
  (** [transfer fac r idx vals] — the [p×p] matrix [BᵀA⁻¹B] for the
      sparse columns of [B] given as rows [idx.(c)] (permuted
      coordinates) with entries [vals.(c)]; [r] is the reach of all
      those rows in [fac]'s symbolic phase. Computed as [Yᵀ D⁻¹ Y]
      with [Y = L⁻¹B] (complex symmetric: no conjugation, no backward
      pass): one forward pass over the reach columns only, with the
      [p] right-hand sides interleaved per row in a workspace of
      [|reach|·p] entries, then the upper triangle of
      [Σᵢ Yᵢᵣ Yᵢc / dᵢ] mirrored, so the result is exactly symmetric.
      Under [SYMOR_SAN=fp] the output is scanned for NaN/Inf. Raises
      [Invalid_argument] when [r] was built on another symbolic phase
      or misses a row of [idx]. *)

  val dim : t -> int

  val d : t -> Complex.t array
  (** The diagonal of [D]. *)

  val fill : t -> int
end
