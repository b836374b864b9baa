module D = Circuit.Diagnostic
module N = Circuit.Netlist
module M = Circuit.Mna

let rules =
  [
    ("STR001", D.Error, "G + sC structurally singular: equation unmatched in maximum transversal");
    ("STR002", D.Error, "under-determined block (Dulmage–Mendelsohn horizontal part)");
    ("STR003", D.Error, "over-determined block (Dulmage–Mendelsohn vertical part)");
    ("STR004", D.Warning, "G alone structurally singular: DC expansion point unusable");
    ("STR005", D.Warning, "predicted factor fill exceeds threshold under every ordering");
    ("STR006", D.Info, "ordering recommendation with predicted factor nonzeros");
    ("STR007", D.Info, "pencil decomposes into independent diagonal blocks");
    ("STR008", D.Info, "structure summary: size, nonzeros, bandwidth, profile, rank");
    ("STR009", D.Info, "second-order structure: inductor loops, coupling density, chosen MNA form");
  ]

type matrix_stats = {
  n : int;
  n_nodes : int;
  nnz_g : int;
  nnz_c : int;
  nnz_pencil : int;
  nnz_lower : int;
  bandwidth : int;
  profile : int;
  struct_rank : int;
  blocks : int;
  largest_block : int;
}

type ordering = Natural | Rcm | Amd

type ordering_report = {
  natural_nnz : int;
  rcm_nnz : int;
  amd_nnz : int;
  natural_profile : int;
  rcm_profile : int;
  best : ordering;
  skyline_stored : int;
  supernodal_stored : int;
  backend_pick : [ `Skyline | `Supernodal ];
}

let ordering_name = function Natural -> "natural" | Rcm -> "RCM" | Amd -> "AMD"

let backend_name = function
  | `Skyline -> "RCM+skyline"
  | `Supernodal -> "AMD+supernodal"

let lower_nnz pat =
  let c = ref 0 in
  for i = 0 to pat.Sparse.Csr.rows - 1 do
    Sparse.Csr.iter_row pat i (fun j _ -> if j <= i then incr c)
  done;
  !c

let stats_of m pat (dm : Sparse.Dm.t) =
  {
    n = m.M.n;
    n_nodes = m.M.n_nodes;
    nnz_g = Sparse.Csr.nnz m.M.g;
    nnz_c = Sparse.Csr.nnz m.M.c;
    nnz_pencil = Sparse.Csr.nnz pat;
    nnz_lower = lower_nnz pat;
    bandwidth = Sparse.Csr.bandwidth pat;
    profile = Sparse.Csr.profile pat;
    struct_rank = dm.Sparse.Dm.matching.Sparse.Matching.rank;
    blocks = Array.length dm.Sparse.Dm.blocks;
    largest_block =
      Array.fold_left
        (fun acc (rs, _) -> Int.max acc (Array.length rs))
        0 dm.Sparse.Dm.blocks;
  }

let stats m =
  let pat = M.pencil_pattern m in
  stats_of m pat (Sparse.Dm.decompose pat)

let orderings m =
  let pat = M.pencil_pattern m in
  let natural_nnz = Sparse.Etree.factor_nnz (Sparse.Etree.of_pattern pat) in
  let rcm_perm = Sparse.Rcm.order pat in
  let amd_perm = Sparse.Amd.order pat in
  let rcm_nnz = Sparse.Etree.predicted_nnz pat rcm_perm in
  let amd_nnz = Sparse.Etree.predicted_nnz pat amd_perm in
  let natural_profile = Sparse.Csr.profile pat in
  let rcm_profile = Sparse.Csr.profile (Sparse.Csr.permute_sym pat rcm_perm) in
  (* prefer the cheaper machinery on ties: a permutation only pays for
     itself when it strictly reduces the predicted fill *)
  let best =
    if amd_nnz < natural_nnz && amd_nnz < rcm_nnz then Amd
    else if rcm_nnz < natural_nnz then Rcm
    else Natural
  in
  (* what each Factor backend would store, and the pick the pipeline's
     own planner makes on this pattern (one source of truth: the same
     Sympvl.Factor orders every factorisation goes through — on the
     general form, the currents-before-nodes supernodal order) *)
  let nodes = m.M.n_nodes in
  let skyline_stored = rcm_profile + m.M.n in
  let supernodal_stored =
    Sparse.Etree.predicted_nnz pat (Sympvl.Factor.supernodal_order ~nodes pat)
  in
  let backend_pick =
    match Sympvl.Factor.plan ~nodes pat with
    | `Skyline _ -> `Skyline
    | `Supernodal _ -> `Supernodal
  in
  {
    natural_nnz;
    rcm_nnz;
    amd_nnz;
    natural_profile;
    rcm_profile;
    best;
    skyline_stored;
    supernodal_stored;
    backend_pick;
  }

let line_of = function Some { N.line } -> Some line | None -> None

(* all terminals of an element — mirrors Lint.terminals *)
let terminals = function
  | N.Resistor { n1; n2; _ }
  | N.Capacitor { n1; n2; _ }
  | N.Inductor { n1; n2; _ }
  | N.Current_source { n1; n2; _ }
  | N.Voltage_source { n1; n2; _ }
  | N.Nonlinear_conductance { n1; n2; _ } ->
    [ n1; n2 ]
  | N.Mutual _ -> []
  | N.Vccs { out_p; out_n; in_p; in_n; _ } -> [ out_p; out_n; in_p; in_n ]

let row_cap = 8

let run ?(fill_threshold = 10.0) nl m =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* source provenance: first line of any element touching a node *)
  let nn = N.num_nodes nl in
  let node_line = Array.make (nn + 1) None in
  List.iter
    (fun (e, o) ->
      let ln = line_of o in
      List.iter
        (fun v -> if node_line.(v) = None then node_line.(v) <- ln)
        (terminals e))
    (N.elements_with_origin nl);
  let inds = Array.of_list (N.inductors nl) in
  (* pencil row/column [i] is a node voltage for i < n_nodes, an
     inductor current (in Netlist.inductors order) beyond *)
  let row_name row =
    if row < m.M.n_nodes then
      Printf.sprintf "node %S" (N.node_name nl (row + 1))
    else
      let name, _, _, _ = inds.(row - m.M.n_nodes) in
      Printf.sprintf "inductor current i(%s)" name
  in
  let row_line row =
    if row < m.M.n_nodes then node_line.(row + 1)
    else
      let name, _, _, _ = inds.(row - m.M.n_nodes) in
      line_of (N.origin_of nl name)
  in
  let group cap rows =
    let shown = List.filteri (fun i _ -> i < cap) rows in
    let names = String.concat ", " (List.map row_name shown) in
    let extra = List.length rows - List.length shown in
    if extra > 0 then Printf.sprintf "%s, … (%d more)" names extra else names
  in
  let first_line rows =
    List.fold_left
      (fun acc r -> match acc with Some _ -> acc | None -> row_line r)
      None rows
  in
  let pat = M.pencil_pattern m in
  let dm = Sparse.Dm.decompose pat in
  let st = stats_of m pat dm in
  let n = m.M.n in
  let rank = st.struct_rank in
  if rank < n then begin
    (* STR001: per-row findings with provenance, capped *)
    let unmatched = Sparse.Matching.unmatched_rows dm.Sparse.Dm.matching in
    let total = List.length unmatched in
    List.iteri
      (fun i r ->
        if i < row_cap then
          emit
            (D.error ?line:(row_line r) "STR001"
               (Printf.sprintf
                  "G + sC is structurally singular: the equation of %s cannot \
                   be matched to an independent unknown — singular for every \
                   element value and every expansion point (structural rank %d \
                   of %d)"
                  (row_name r) rank n)))
      unmatched;
    if total > row_cap then
      emit
        (D.error "STR001"
           (Printf.sprintf "… and %d more structurally dependent equations"
              (total - row_cap)));
    let hc = Array.to_list dm.Sparse.Dm.hor_cols in
    if hc <> [] then
      emit
        (D.error ?line:(first_line hc) "STR002"
           (Printf.sprintf
              "under-determined block: %d unknown%s (%s) appear in only %d \
               equation%s — no value assignment determines them"
              (List.length hc)
              (if List.length hc > 1 then "s" else "")
              (group 4 hc)
              (Array.length dm.Sparse.Dm.hor_rows)
              (if Array.length dm.Sparse.Dm.hor_rows = 1 then "" else "s")));
    let vr = Array.to_list dm.Sparse.Dm.ver_rows in
    if vr <> [] then
      emit
        (D.error ?line:(first_line vr) "STR003"
           (Printf.sprintf
              "over-determined block: %d equation%s (%s) constrain only %d \
               unknown%s — structurally redundant"
              (List.length vr)
              (if List.length vr > 1 then "s" else "")
              (group 4 vr)
              (Array.length dm.Sparse.Dm.ver_cols)
              (if Array.length dm.Sparse.Dm.ver_cols = 1 then "" else "s")))
  end
  else begin
    (* the pencil is fine; check the expansion point s0 = 0 (STR004)
       and report cost predictions (STR005–STR007) *)
    let gm = Sparse.Matching.maximum m.M.g in
    if gm.Sparse.Matching.rank < n then begin
      let bad = Sparse.Matching.unmatched_rows gm in
      emit
        (D.warning ?line:(first_line bad) "STR004"
           (Printf.sprintf
              "G alone is structurally singular (%s: no stamp in G): the DC \
               expansion point s0 = 0 is unusable for every element value — \
               reduction needs a nonzero frequency shift (automatic, or pass \
               --band)"
              (group 4 bad)))
    end;
    let ord = orderings m in
    let best_nnz =
      match ord.best with
      | Natural -> ord.natural_nnz
      | Rcm -> ord.rcm_nnz
      | Amd -> ord.amd_nnz
    in
    if n >= 50 && float_of_int best_nnz > fill_threshold *. float_of_int st.nnz_lower
    then
      emit
        (D.warning "STR005"
           (Printf.sprintf
              "predicted fill blow-up: the best ordering (%s) still yields %d \
               factor nonzeros, %.1f× the %d lower-pencil entries — the factor \
               is effectively dense"
              (ordering_name ord.best) best_nnz
              (float_of_int best_nnz /. float_of_int st.nnz_lower)
              st.nnz_lower));
    emit
      (D.info "STR006"
         (Printf.sprintf
            "ordering: predicted LDLᵀ factor nonzeros — natural %d, RCM %d, \
             AMD %d (skyline envelope: natural %d, RCM %d); recommended: %s; \
             factor backend: RCM+skyline stores %d vs AMD+supernodal %d — \
             plan picks %s"
            ord.natural_nnz ord.rcm_nnz ord.amd_nnz ord.natural_profile
            ord.rcm_profile (ordering_name ord.best) ord.skyline_stored
            ord.supernodal_stored (backend_name ord.backend_pick)));
    if st.blocks > 1 then
      emit
        (D.info "STR007"
           (Printf.sprintf
              "the pencil is reducible: %d independent diagonal blocks \
               (largest %d unknowns) — the system decouples and can be \
               factored block by block"
              st.blocks st.largest_block))
  end;
  emit
    (D.info "STR008"
       (Printf.sprintf
          "structure: %d unknowns (%d node voltages, %d inductor currents), \
           nnz(G) = %d, nnz(C) = %d, pencil pattern %d (lower %d), bandwidth \
           %d, profile %d, structural rank %d/%d"
          st.n st.n_nodes (st.n - st.n_nodes) st.nnz_g st.nnz_c st.nnz_pencil
          st.nnz_lower st.bandwidth st.profile st.struct_rank st.n));
  (let so = M.second_order_stats nl in
   emit
     (D.info "STR009"
        (Printf.sprintf
           "second-order structure: %s; %d inductor loop%s; coupling density \
            %.3f (K cards over inductor pairs)"
           so.M.chosen_form so.M.inductor_loops
           (if so.M.inductor_loops = 1 then "" else "s")
           so.M.coupling_density)));
  D.sort !diags

let analyze ?fill_threshold nl = run ?fill_threshold nl (M.auto nl)

let analyze_string ?fill_threshold text =
  match Circuit.Parser.parse_string text with
  | nl -> analyze ?fill_threshold nl
  | exception Circuit.Parser.Parse_error (line, msg) ->
    [
      D.error
        ?line:(if line > 0 then Some line else None)
        "NET000" ("does not parse: " ^ msg);
    ]

let analyze_file ?fill_threshold path =
  match Circuit.Parser.parse_file path with
  | nl -> analyze ?fill_threshold nl
  | exception Circuit.Parser.Parse_error (line, msg) ->
    [
      D.error
        ?line:(if line > 0 then Some line else None)
        "NET000" ("does not parse: " ^ msg);
    ]
