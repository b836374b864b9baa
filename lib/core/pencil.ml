(* the shared symbolic phase, one per backend: both carry the merged
   G/C pattern with the matrices pre-scattered so each numeric
   factorisation is free of pattern analysis; the supernodal one also
   carries the ports' elimination-tree reach for [transfer] *)
type backend_sym =
  | Sky of Sparse.Skyline.pencil_env
  | Super of Sparse.Supernodal.symbolic * Sparse.Supernodal.reach

type t = {
  g : Sparse.Csr.t;
  c : Sparse.Csr.t;
  mna : Circuit.Mna.t option; (* set by [create]: ports and labels *)
  variable : Circuit.Mna.variable;
  n : int;
  nodes : int; (* leading node voltages; the rest are inductor currents *)
  p : int;
  perm : int array; (* new index -> old index *)
  inv : int array; (* old index -> new index *)
  mutable backend : backend_sym; (* mutable only via [reserve] *)
  port_idx : int array array;
  port_val : float array array;
  cache : (float, (Factor.t, int) result) Hashtbl.t;
}

let log_src = Logs.Src.create "sympvl.pencil" ~doc:"shared pencil-solve context"

module Log = (val Logs.src_log log_src : Logs.LOG)

let n t = t.n

let port_idx t = t.port_idx

let port_val t = t.port_val

let g t = t.g

let c t = t.c

(* structural pre-flight: a pencil whose pattern has structural rank
   < n is singular for every element value and every expansion shift
   (Matching.mli) — fail up front with a located user error instead of
   a late Factor.Singular from some shifted retry *)
let check_structure (m : Circuit.Mna.t) pattern =
  let mm = Sparse.Matching.maximum pattern in
  let n = m.Circuit.Mna.n in
  if mm.Sparse.Matching.rank < n then begin
    let rows = Sparse.Matching.unmatched_rows mm in
    let shown = List.filteri (fun i _ -> i < 4) rows in
    let labels = String.concat ", " (List.map (Circuit.Mna.unknown_label m) shown) in
    let extra = List.length rows - List.length shown in
    Circuit.Diagnostic.user_errorf
      "[STR001] G + sC is structurally singular (structural rank %d of %d): \
       %s%s cannot be matched to independent equations — no element values or \
       expansion shift can repair this; run `symor analyze` for source-line \
       provenance"
      mm.Sparse.Matching.rank n labels
      (if extra > 0 then Printf.sprintf " (and %d more)" extra else "")
  end

let auto_shift_gc g c =
  let diag_max a =
    let worst = ref 0.0 in
    for i = 0 to a.Sparse.Csr.rows - 1 do
      worst := Float.max !worst (Float.abs (Sparse.Csr.get a i i))
    done;
    !worst
  in
  let g = diag_max g and c = diag_max c in
  if c <= 0.0 then 1.0 else Float.max (g /. c) 1.0

let auto_shift (m : Circuit.Mna.t) = auto_shift_gc m.Circuit.Mna.g m.Circuit.Mna.c

let band_shift_var variable (f_lo, f_hi) =
  assert (f_lo > 0.0 && f_hi >= f_lo);
  let w = 2.0 *. Float.pi *. sqrt (f_lo *. f_hi) in
  match variable with Circuit.Mna.S -> w | Circuit.Mna.S_squared -> w *. w

let band_shift (m : Circuit.Mna.t) band = band_shift_var m.Circuit.Mna.variable band

(* the supernodal phase with the ports' reach, whose size is the
   [pencil.reach] gauge: the columns one exact-Z point runs over *)
let super_backend port_idx sym =
  let reach = Sparse.Supernodal.reach sym (Array.concat (Array.to_list port_idx)) in
  if Obs.tracing () then
    Obs.gauge "pencil.reach" (float_of_int (Array.length (Sparse.Supernodal.reach_columns reach)));
  Super (sym, reach)

(* [mna], when given, supplies the variable, the ports and the labels *)
let make ?mna ~nodes pattern g c =
  let variable, b =
    match mna with
    | Some m -> (m.Circuit.Mna.variable, Some m.Circuit.Mna.b)
    | None -> (Circuit.Mna.S, None)
  in
  if Obs.tracing () then
    Obs.span_begin ~args:[ ("n", Obs.Int g.Sparse.Csr.rows) ] "factor.symbolic";
  let n = g.Sparse.Csr.rows in
  let chosen = Factor.plan ~nodes pattern in
  let perm = match chosen with `Skyline p | `Supernodal p -> p in
  let inv = Array.make n 0 in
  Array.iteri (fun new_i old_i -> inv.(old_i) <- new_i) perm;
  let p = match b with None -> 0 | Some b -> b.Linalg.Mat.cols in
  let port_idx = Array.make p [||] and port_val = Array.make p [||] in
  (match b with
  | None -> ()
  | Some b ->
    for c = 0 to p - 1 do
      let idx = ref [] and v = ref [] in
      for i = n - 1 downto 0 do
        let bi = Linalg.Mat.get b perm.(i) c in
        if bi <> 0.0 then begin
          idx := i :: !idx;
          v := bi :: !v
        end
      done;
      port_idx.(c) <- Array.of_list !idx;
      port_val.(c) <- Array.of_list !v
    done);
  let gp = Sparse.Csr.permute_sym g perm in
  let cp = Sparse.Csr.permute_sym c perm in
  let backend =
    match chosen with
    | `Skyline _ -> Sky (Sparse.Skyline.pencil_env gp cp)
    | `Supernodal _ -> super_backend port_idx (Sparse.Supernodal.symbolic ~c:cp gp)
  in
  if Obs.tracing () then Obs.span_end ();
  {
    g;
    c;
    mna;
    variable;
    n;
    nodes;
    p;
    perm;
    inv;
    backend;
    port_idx;
    port_val;
    cache = Hashtbl.create 4;
  }

let of_matrices ?nodes g c =
  let nodes = Option.value nodes ~default:g.Sparse.Csr.rows in
  make ~nodes (Sparse.Csr.add g c) g c

(* one merged pattern, the one [symor analyze] plans on, serves both
   the structural pre-flight and the backend plan *)
let create (m : Circuit.Mna.t) =
  let pattern = Circuit.Mna.pencil_pattern m in
  check_structure m pattern;
  make ~mna:m ~nodes:m.Circuit.Mna.n_nodes pattern m.Circuit.Mna.g m.Circuit.Mna.c

let built_from t m = match t.mna with Some m' -> m' == m | None -> false

(* ------------------------------------------------------------------ *)
(* real factorisations, memoized by shift                              *)

let of_sky perm fac =
  Factor.of_ldlt ~kind:`Skyline ~perm ~d:(Sparse.Skyline.Real.d fac)
    ~solve_lower:(Sparse.Skyline.Real.solve_lower fac)
    ~solve_lower_t:(Sparse.Skyline.Real.solve_lower_t fac)

let of_super perm fac =
  Factor.of_ldlt ~kind:`Supernodal ~perm ~d:(Sparse.Supernodal.Real.d fac)
    ~solve_lower:(Sparse.Supernodal.Real.solve_lower fac)
    ~solve_lower_t:(Sparse.Supernodal.Real.solve_lower_t fac)

let dense_shifted t s0 =
  let shifted =
    if s0 = 0.0 then t.g else Sparse.Csr.add ~alpha:1.0 ~beta:s0 t.g t.c
  in
  Factor.of_dense (Sparse.Csr.to_dense shifted)

let sparse_numeric ?extra t s0 =
  match t.backend with
  | Sky env ->
    let sky = Sparse.Skyline.factor_pencil_real ?extra env s0 in
    if Obs.tracing () then begin
      Obs.count "factor.count" 1;
      Obs.count "factor.nnz" (Sparse.Skyline.Real.fill sky)
    end;
    of_sky t.perm sky
  | Super (sym, _) ->
    let fac = Sparse.Supernodal.Real.factor ?extra sym s0 in
    if Obs.tracing () then begin
      Obs.count "factor.count" 1;
      Obs.count "factor.nnz" (Sparse.Supernodal.Real.fill fac)
    end;
    of_super t.perm fac

(* the unknown behind an original-coordinate row, for messages *)
let unknown_label t row =
  match t.mna with
  | Some m -> Circuit.Mna.unknown_label m row
  | None -> Printf.sprintf "unknown %d" (row + 1)

(* ------------------------------------------------------------------ *)
(* s₀ = 0 on the general RLC form: augmented-KKT congruence            *)

(* At s₀ = 0 the general-form pencil is K₀ = G = [[Gn, Aᵀ], [A, 0]].
   Gn alone may be singular — a node pair joined only by a resistor,
   with DC paths to ground only through inductors — so eliminating
   nodes first can hit an exactly cancelling pivot. The congruence
   T = [[I, 0], [W·A, I]] with a positive diagonal W gives

     K' = TᵀK₀T = [[Gn + 2AᵀWA, Aᵀ], [A, 0]],

   whose node block is positive definite whenever K₀ is nonsingular
   (no inductor loop, a DC path from every node); the only new entries
   join the two ends of an inductor. Under any order that eliminates
   each current after its incident nodes, every leading block is then
   nonsingular — positive definite node part, full-row-rank coupling —
   so the no-pivot LDLᵀ exists, and pivot k is positive for a node and
   negative for a current. That sign pattern is checked after
   factoring; a mismatch means K₀ is singular or too ill-conditioned
   for the unpivoted factor, and the caller falls back to dense. *)

(* Pivot k of an order that separates every current from its nodes is
   positive for a node and negative for a current; a mismatch is a
   breakdown at that row (original coordinates). *)
let check_inertia ~perm ~nodes d =
  Array.iteri
    (fun k dk -> if Bool.equal (perm.(k) < nodes) (dk < 0.0) then raise (Factor.Singular perm.(k)))
    d

(* Raises [Factor.Singular row] (original coordinates) on breakdown or
   on a pivot of the wrong sign. *)
let kkt_factor t nn =
  let g = t.g and n = t.n in
  let ni = n - nn in
  (* W: per inductor, the larger Gn diagonal of its two nodes — the
     node block's own scale — or, for an inductor between nodes with
     no conductance, the largest Gn diagonal (1 if there is none) *)
  let diag = Array.init nn (fun i -> Sparse.Csr.get g i i) in
  let fallback =
    let d = Array.fold_left Float.max 0.0 diag in
    if d > 0.0 then d else 1.0
  in
  let w =
    Array.init ni (fun k ->
        let best = ref 0.0 in
        Sparse.Csr.iter_row g (nn + k) (fun j _ ->
            if j < nn then best := Float.max !best diag.(j));
        if !best > 0.0 then !best else fallback)
  in
  let awa = Sparse.Triplet.create n n in
  for k = 0 to ni - 1 do
    Sparse.Csr.iter_row g (nn + k) (fun i ai ->
        if i < nn then
          Sparse.Csr.iter_row g (nn + k) (fun j aj ->
              if j < nn then Sparse.Triplet.add awa i j (2.0 *. w.(k) *. ai *. aj)))
  done;
  let kp = Sparse.Csr.add g (Sparse.Csr.of_triplet awa) in
  if Obs.tracing () then
    Obs.span_begin ~args:[ ("n", Obs.Int n) ] "factor.symbolic";
  let perm = Sparse.Supernodal.order ~late:nn kp in
  let sym = Sparse.Supernodal.symbolic (Sparse.Csr.permute_sym kp perm) in
  if Obs.tracing () then Obs.span_end ();
  let fac =
    try Sparse.Supernodal.Real.factor sym 0.0
    with Sparse.Supernodal.Singular k -> raise (Factor.Singular perm.(k))
  in
  check_inertia ~perm ~nodes:nn (Sparse.Supernodal.Real.d fac);
  if Obs.tracing () then begin
    Obs.count "factor.count" 1;
    Obs.count "factor.nnz" (Sparse.Supernodal.Real.fill fac)
  end;
  (* the O(nnz A) maps, in place: Tᵀb = [bₙ + AᵀW bᵢ; bᵢ] and
     T y = [yₙ; W A yₙ + yᵢ] (each reads only the block it leaves
     alone) *)
  let tt x =
    for k = 0 to ni - 1 do
      let wb = w.(k) *. x.(nn + k) in
      Sparse.Csr.iter_row g (nn + k) (fun j a -> if j < nn then x.(j) <- x.(j) +. (a *. wb))
    done
  in
  let tm y =
    for k = 0 to ni - 1 do
      let s = ref 0.0 in
      Sparse.Csr.iter_row g (nn + k) (fun j a -> if j < nn then s := !s +. (a *. y.(j)));
      y.(nn + k) <- y.(nn + k) +. (w.(k) *. !s)
    done
  in
  Factor.congruent ~t:tm ~tt (of_super perm fac)

(* the planned sparse backend; the error is the failing row in original
   coordinates. On the general form the supernodal order eliminates
   every current before its nodes (Factor.supernodal_order), so at a
   real s₀ > 0 the pivot signs are known and checked like the s₀ = 0
   path's. *)
let backend_factor t s0 =
  match sparse_numeric t s0 with
  | fac -> (
    match t.backend with
    | Super _ when t.nodes < t.n && s0 > 0.0 -> (
      match check_inertia ~perm:t.perm ~nodes:t.nodes fac.Factor.j with
      | () -> Ok fac
      | exception Factor.Singular i -> Error i)
    | _ -> Ok fac)
  | exception (Sparse.Skyline.Singular i | Sparse.Supernodal.Singular i) -> Error t.perm.(i)

let factor_uncached t s0 =
  if Obs.tracing () then Obs.span_begin "factor.numeric";
  let sparse_fac =
    if s0 = 0.0 && t.nodes < t.n then
      match kkt_factor t t.nodes with fac -> Ok fac | exception Factor.Singular i -> Error i
    else backend_factor t s0
  in
  match sparse_fac with
  | Ok fac ->
    if Obs.tracing () then Obs.span_end ();
    Ok fac
  | Error i -> (
    if Obs.tracing () then begin
      Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.breakdown";
      Obs.span_end ()
    end;
    Log.warn (fun f ->
        f "sparse pivot breakdown at %s (s0 = %g); falling back to dense Bunch-Kaufman"
          (unknown_label t i) s0);
    if Obs.tracing () then begin
      Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.fallback_dense";
      Obs.count "factor.fallback_dense" 1
    end;
    match dense_shifted t s0 with
    | fac -> Ok fac
    | exception Factor.Singular j -> Error j)

let unpack = function Ok fac -> fac | Error i -> raise (Factor.Singular i)

let factor t ~shift =
  match Hashtbl.find_opt t.cache shift with
  | Some r ->
    if Obs.tracing () then Obs.count "pencil.cache_hit" 1;
    unpack r
  | None ->
    if Obs.tracing () then Obs.count "pencil.cache_miss" 1;
    let r = factor_uncached t shift in
    Hashtbl.replace t.cache shift r;
    unpack r

let with_auto_shift ?shift ?band t f =
  match shift with
  | Some s0 -> f s0 (factor t ~shift:s0)
  | None -> (
    match factor t ~shift:0.0 with
    | fac -> f 0.0 fac
    | exception Factor.Singular _ ->
      let s0 =
        match band with
        | Some b -> band_shift_var t.variable b
        | None -> auto_shift_gc t.g t.c
      in
      Log.info (fun f -> f "G singular; retrying with automatic shift s0 = %g" s0);
      if Obs.tracing () then
        Obs.instant ~args:[ ("shift", Obs.Float s0) ] "pencil.shift_retry";
      f s0 (factor t ~shift:s0))

(* ------------------------------------------------------------------ *)
(* Newton-Jacobian hook (transient)                                    *)

let reserve t positions =
  match t.backend with
  | Sky env ->
    let extra_first = Array.init t.n (fun i -> i) in
    Array.iter
      (fun (i, j) ->
        let pi = t.inv.(i) and pj = t.inv.(j) in
        let hi = max pi pj and lo = min pi pj in
        if lo < extra_first.(hi) then extra_first.(hi) <- lo)
      positions;
    t.backend <- Sky (Sparse.Skyline.widen_env env extra_first)
  | Super _ ->
    (* rebuild the symbolic phase with the stamp positions merged into
       the pattern as structural zeros — the ordering is kept, so
       factorisations without stamps stay numerically identical *)
    let extra_pattern =
      Array.map (fun (i, j) -> (t.inv.(i), t.inv.(j))) positions
    in
    let gp = Sparse.Csr.permute_sym t.g t.perm in
    let cp = Sparse.Csr.permute_sym t.c t.perm in
    t.backend <- super_backend t.port_idx (Sparse.Supernodal.symbolic ~extra_pattern ~c:cp gp)

let factor_with t ~shift ~extra =
  let extra = Array.map (fun (i, j, v) -> (t.inv.(i), t.inv.(j), v)) extra in
  match sparse_numeric ~extra t shift with
  | fac -> fac
  | exception (Sparse.Skyline.Singular i | Sparse.Supernodal.Singular i) ->
    raise (Factor.Singular t.perm.(i))

(* ------------------------------------------------------------------ *)
(* complex pencil solves (AC path)                                     *)

(* a supernodal factor keeps the reach of the phase it was built on *)
type cfactor =
  | Csky of Sparse.Skyline.Complex_soa.t
  | Csuper of Sparse.Supernodal.Complex_soa.t * Sparse.Supernodal.reach

(* every breakdown leaves as [Factor.Singular] at the original row *)
let factor_complex t s =
  match t.backend with
  | Sky env -> (
    match Sparse.Skyline.Complex_soa.factor_pencil env s with
    | fac -> Csky fac
    | exception Sparse.Skyline.Singular i -> raise (Factor.Singular t.perm.(i)))
  | Super (sym, reach) -> (
    match Sparse.Supernodal.Complex_soa.factor sym s with
    | fac -> Csuper (fac, reach)
    | exception Sparse.Supernodal.Singular i -> raise (Factor.Singular t.perm.(i)))

let csolve_split fac b_re b_im =
  match fac with
  | Csky f -> Sparse.Skyline.Complex_soa.solve_split f b_re b_im
  | Csuper (f, _) -> Sparse.Supernodal.Complex_soa.solve_split f b_re b_im

(* one complex solve per port against a shared factor, gathered
   through the sparse port patterns: X = (G + sC)⁻¹B, then BᵀX *)
let per_port_transfer t fac =
  let n = t.n and p = t.p in
  let z = Linalg.Cmat.create p p in
  let x_re = Array.make n 0.0 and x_im = Array.make n 0.0 in
  for c = 0 to p - 1 do
    Array.fill x_re 0 n 0.0;
    Array.fill x_im 0 n 0.0;
    let ci = t.port_idx.(c) and cv = t.port_val.(c) in
    for k = 0 to Array.length ci - 1 do
      x_re.(ci.(k)) <- cv.(k)
    done;
    csolve_split fac x_re x_im;
    for r = 0 to p - 1 do
      let ri = t.port_idx.(r) and rv = t.port_val.(r) in
      let sre = ref 0.0 and sim = ref 0.0 in
      for k = 0 to Array.length ri - 1 do
        let i = ri.(k) in
        sre := !sre +. (rv.(k) *. x_re.(i));
        sim := !sim +. (rv.(k) *. x_im.(i))
      done;
      Linalg.Cmat.set z r c { Complex.re = !sre; im = !sim }
    done
  done;
  z

let transfer t fac =
  match fac with
  | Csky _ -> per_port_transfer t fac
  | Csuper (f, reach) -> Sparse.Supernodal.Complex_soa.transfer f reach t.port_idx t.port_val

let z_at t s =
  let var =
    match t.variable with Circuit.Mna.S -> s | Circuit.Mna.S_squared -> Linalg.Cx.(s *: s)
  in
  let fac = factor_complex t var in
  if Obs.tracing () then Obs.span_begin "ac.solve";
  let z = transfer t fac in
  if Obs.tracing () then Obs.span_end ();
  match t.mna with
  | Some { Circuit.Mna.gain = Circuit.Mna.Times_s; _ } -> Linalg.Cmat.scale s z
  | _ -> z
