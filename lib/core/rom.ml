type engine = [ `Sympvl | `Prima | `Sprim | `Bt ]

let all = [ `Sympvl; `Prima; `Sprim; `Bt ]

let name = function
  | `Sympvl -> "sympvl"
  | `Prima -> "prima"
  | `Sprim -> "sprim"
  | `Bt -> "bt"

let of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "sympvl" -> Some `Sympvl
  | "prima" | "arnoldi" -> Some `Prima
  | "sprim" -> Some `Sprim
  | "bt" | "balanced" | "truncation" -> Some `Bt
  | _ -> None

let describe = function
  | `Sympvl ->
    "symmetric band-Lanczos matrix-Pade (the paper's algorithm): matches \
     2*floor(n/p) matrix moments; provably stable and passive on the \
     definite unshifted path"
  | `Prima ->
    "block-Arnoldi congruence projection (PRIMA): matches floor(n/p) moment \
     blocks; passive by congruence on PSD pencils"
  | `Sprim ->
    "SPRIM block-structure-preserving congruence (general RLC form): the \
     PRIMA Krylov basis split at the node/current boundary and re-blocked, \
     so reduced models keep G/C symmetry, the 2x2 block structure and \
     passivity by construction, and synthesise back to RLCk netlists"
  | `Bt ->
    "balanced truncation on the symmetric definite RC form: provably stable \
     and passive, with the a-priori H-infinity error bound 2*sum(dropped \
     Hankel singular values); dense O(N^3)"

(* documented worst-case relative deviation from the exact AC golden
   fixtures on the shipped examples' 16-point grid (1e6..1e10 Hz) at
   the orders the cross-engine test requests — the Krylov engines are
   run near exhaustion (model = exact transfer function) *)
let golden_rtol = function
  | `Sympvl -> 1e-6
  | `Prima -> 1e-5
  | `Sprim -> 1e-5
  | `Bt -> 1e-6

let supports engine (m : Circuit.Mna.t) =
  match engine with
  | `Sympvl | `Prima -> Ok ()
  | `Sprim ->
    if
      m.Circuit.Mna.variable <> Circuit.Mna.S
      || m.Circuit.Mna.gain <> Circuit.Mna.Unit
    then
      Error
        "SPRIM preserves the node/current block structure of the general RLC \
         form Z = B^T(G+sC)^{-1}B; the specialised RL/LC gain and variable \
         mappings have no current block to preserve (use sympvl)"
    else if m.Circuit.Mna.n = m.Circuit.Mna.n_nodes then
      Error
        "SPRIM needs an inductor-current block to preserve, but this netlist \
         has no inductors (the RC form is already structure-preserving — use \
         sympvl or prima)"
    else Ok ()
  | `Bt ->
    if m.Circuit.Mna.variable <> Circuit.Mna.S || m.Circuit.Mna.gain <> Circuit.Mna.Unit
    then
      Error
        "balanced truncation needs the direct impedance form Z = \
         B^T(G+sC)^{-1}B (RC class; RL/LC gain and variable mappings are \
         unsupported)"
    else if not m.Circuit.Mna.spd then
      Error
        "balanced truncation needs the symmetric positive definite RC form \
         (general RLC pencils are indefinite)"
    else begin
      (* Chol(C) needs C ≻ 0: a node without a capacitance to ground
         (zero C diagonal) makes the pencil only semidefinite *)
      let singular_c = ref (-1) in
      for i = m.Circuit.Mna.n - 1 downto 0 do
        if Sparse.Csr.get m.Circuit.Mna.c i i <= 0.0 then singular_c := i
      done;
      if !singular_c >= 0 then
        Error
          (Printf.sprintf
             "balanced truncation needs C positive definite, but node %d has no \
              capacitance to ground"
             !singular_c)
      else Ok ()
    end

type model =
  | Sympvl_model of Model.t
  | Prima_model of Arnoldi.t
  | Sprim_model of Sprim.t
  | Bt_model of Btruncation.t

exception Unsupported of string

let reduce ?ctx ?shift ?band ~order engine (m : Circuit.Mna.t) =
  (match supports engine m with Ok () -> () | Error why -> raise (Unsupported why));
  match engine with
  | `Sympvl ->
    let opts = { (Reduce.default ~order) with Reduce.shift; band } in
    Sympvl_model (Reduce.mna ~opts ?ctx ~order m)
  | `Prima -> Prima_model (Arnoldi.reduce ?ctx ?shift ?band ~order m)
  | `Sprim -> Sprim_model (Sprim.reduce ?ctx ?shift ?band ~order m)
  | `Bt -> (
    match Btruncation.reduce ~order m with
    | bt -> Bt_model bt
    | exception Btruncation.Not_definite ->
      raise
        (Unsupported
           "balanced truncation: the assembled pencil is not positive definite \
            (singular C or indefinite congruence)"))

let engine_of_model = function
  | Sympvl_model _ -> `Sympvl
  | Prima_model _ -> `Prima
  | Sprim_model _ -> `Sprim
  | Bt_model _ -> `Bt

let realisation = function
  | Sympvl_model m -> m.Model.real
  | Prima_model r -> r
  | Sprim_model m -> m.Sprim.real
  | Bt_model m -> m.Btruncation.real

let eval model s = Realisation.eval (realisation model) s

let order model = Realisation.order (realisation model)

let ports model = Realisation.ports (realisation model)

let shift model = (realisation model).Realisation.shift

(* the number of matrix moments each algorithm matches by construction
   (paper Section 3.2 for SyMPVL; Grimme for Arnoldi; balanced
   truncation optimises the H-infinity error, not moments) *)
let expected_moments model =
  let p = ports model in
  match model with
  | Sympvl_model _ -> 2 * (order model / p)
  | Prima_model _ -> order model / p
  (* the split basis spans at least PRIMA's projection subspace, so
     SPRIM inherits (at least) the PRIMA moment floor at the same
     Krylov depth *)
  | Sprim_model m -> m.Sprim.krylov_cols / p
  | Bt_model _ -> 0
