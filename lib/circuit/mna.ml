type gain = Unit | Times_s

type variable = S | S_squared

type t = {
  n : int;
  n_nodes : int;
  g : Sparse.Csr.t;
  c : Sparse.Csr.t;
  b : Linalg.Mat.t;
  port_names : string array;
  gain : gain;
  variable : variable;
  spd : bool;
}

(* stamp a two-terminal admittance-like value into a nodal matrix;
   MNA index of node n is n - 1, ground (0) is dropped *)
let stamp_pair tr n1 n2 v =
  let i = n1 - 1 and j = n2 - 1 in
  if i >= 0 then Sparse.Triplet.add tr i i v;
  if j >= 0 then Sparse.Triplet.add tr j j v;
  if i >= 0 && j >= 0 then begin
    Sparse.Triplet.add tr i j (-.v);
    Sparse.Triplet.add tr j i (-.v)
  end

let require_ports nl =
  if Netlist.port_count nl = 0 then
    Diagnostic.user_errorf
      "Mna: netlist has no ports — declare at least one with .port/add_port"

(* name the first offending element, with its source line when the
   netlist was parsed from a file *)
let where_of = function
  | Some { Netlist.line } -> Printf.sprintf " (line %d)" line
  | None -> ""

let require_linear nl =
  if not (Netlist.is_linear_rlc nl) then begin
    let offender =
      List.find_opt
        (fun (e, _) ->
          match e with
          | Netlist.Voltage_source _ | Netlist.Vccs _ | Netlist.Nonlinear_conductance _
            ->
            true
          | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
          | Netlist.Mutual _ | Netlist.Current_source _ ->
            false)
        (Netlist.elements_with_origin nl)
    in
    match offender with
    | Some (e, o) ->
      Diagnostic.user_errorf
        "Mna: %s%s is not admissible in the MOR path — only R/L/C/K elements and \
         current excitations are (run `symor lint` for the full report)"
        (Netlist.element_name e) (where_of o)
    | None ->
      Diagnostic.user_errorf
        "Mna: controlled/nonlinear elements are not allowed in the MOR path"
  end

(* A malformed K card (zero k, self-coupling, unknown inductor) makes
   the inductance matrix ill-defined; the raw parser accepts such
   cards so the linter can report them (NET017), so every assembly
   entry point re-checks here. *)
let require_couplings nl =
  match Netlist.coupling_problems nl with
  | [] -> ()
  | (name, msg) :: _ ->
    Diagnostic.user_errorf
      "Mna: coupling %s%s %s (run `symor lint` for the full NET017 report)" name
      (where_of (Netlist.origin_of nl name))
      msg

let port_matrix nl n =
  let ports = Netlist.ports nl in
  let p = List.length ports in
  let b = Linalg.Mat.create n p in
  List.iteri
    (fun j { Netlist.plus; minus; _ } ->
      if plus > 0 then Linalg.Mat.add_to b (plus - 1) j 1.0;
      if minus > 0 then Linalg.Mat.add_to b (minus - 1) j (-1.0))
    ports;
  b

let port_names nl =
  Array.of_list (List.map (fun pt -> pt.Netlist.port_name) (Netlist.ports nl))

(* Above this inductor count the −ℒ block of the general form is
   stamped straight from the K cards instead of via a dense ℒ (which
   would be O(ni²) memory — ~800 MB at ni = 10⁴). Kept well above
   every shipped example so their assembly, and hence the committed
   goldens, are bit-identical to before. *)
let dense_inductance_max = 2048

(* hashed inductor-name → index map; [Netlist.find_inductor] is a
   linear scan and quadratic over many K cards *)
let inductor_index nl =
  let index = Hashtbl.create 256 in
  List.iteri (fun i (name, _, _, _) -> Hashtbl.replace index name i) (Netlist.inductors nl);
  index

let inductance_matrix nl =
  let inds = Netlist.inductors nl in
  let nl_count = List.length inds in
  let values = Array.of_list (List.map (fun (_, _, _, h) -> h) inds) in
  let index = inductor_index nl in
  let m = Linalg.Mat.create nl_count nl_count in
  for i = 0 to nl_count - 1 do
    Linalg.Mat.set m i i values.(i)
  done;
  List.iter
    (fun e ->
      match e with
      | Netlist.Mutual { l1; l2; k; _ } ->
        let i = Hashtbl.find index l1 and j = Hashtbl.find index l2 in
        let mij = k *. sqrt (values.(i) *. values.(j)) in
        Linalg.Mat.add_to m i j mij;
        Linalg.Mat.add_to m j i mij
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
      | Netlist.Current_source _ | Netlist.Voltage_source _ | Netlist.Vccs _
      | Netlist.Nonlinear_conductance _ ->
        ())
    (Netlist.elements nl);
  m

(* Aˡ incidence matrix of inductor branches over non-ground nodes *)
let inductor_incidence nl =
  let inds = Netlist.inductors nl in
  let nn = Netlist.num_nodes nl in
  let al = Linalg.Mat.create (List.length inds) nn in
  List.iteri
    (fun k (_, n1, n2, _) ->
      if n1 > 0 then Linalg.Mat.add_to al k (n1 - 1) 1.0;
      if n2 > 0 then Linalg.Mat.add_to al k (n2 - 1) (-1.0))
    inds;
  al

(* Aˡᵀ ℒ⁻¹ Aˡ as a CSR matrix (dense intermediate; the inductor count
   is moderate even in the PEEC workloads) *)
let inductive_nodal_g nl =
  let lmat = inductance_matrix nl in
  let al = inductor_incidence nl in
  let chol = Linalg.Chol.factor lmat in
  let linv_al = Linalg.Chol.solve_mat chol al in
  let g = Linalg.Mat.mul (Linalg.Mat.transpose al) linv_al in
  Sparse.Csr.of_dense g

let conductance_nodal nl nn =
  let tr = Sparse.Triplet.create nn nn in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { n1; n2; ohms; _ } -> stamp_pair tr n1 n2 (1.0 /. ohms)
      | Netlist.Capacitor _ | Netlist.Inductor _ | Netlist.Mutual _
      | Netlist.Current_source _ | Netlist.Voltage_source _ | Netlist.Vccs _
      | Netlist.Nonlinear_conductance _ ->
        ())
    (Netlist.elements nl);
  Sparse.Csr.of_triplet tr

let capacitance_nodal nl nn =
  let tr = Sparse.Triplet.create nn nn in
  List.iter
    (fun e ->
      match e with
      | Netlist.Capacitor { n1; n2; farads; _ } -> stamp_pair tr n1 n2 farads
      | Netlist.Resistor _ | Netlist.Inductor _ | Netlist.Mutual _
      | Netlist.Current_source _ | Netlist.Voltage_source _ | Netlist.Vccs _
      | Netlist.Nonlinear_conductance _ ->
        ())
    (Netlist.elements nl);
  Sparse.Csr.of_triplet tr

let assemble nl =
  require_linear nl;
  require_ports nl;
  require_couplings nl;
  let nn = Netlist.num_nodes nl in
  let inds = Netlist.inductors nl in
  let ni = List.length inds in
  let n = nn + ni in
  (* G = [[AᵍᵀGAᵍ, Aˡᵀ]; [Aˡ, 0]] *)
  let gtr = Sparse.Triplet.create n n in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { n1; n2; ohms; _ } -> stamp_pair gtr n1 n2 (1.0 /. ohms)
      | Netlist.Capacitor _ | Netlist.Inductor _ | Netlist.Mutual _
      | Netlist.Current_source _ | Netlist.Voltage_source _ | Netlist.Vccs _
      | Netlist.Nonlinear_conductance _ ->
        ())
    (Netlist.elements nl);
  List.iteri
    (fun k (_, n1, n2, _) ->
      let row = nn + k in
      if n1 > 0 then Sparse.Triplet.add_sym gtr row (n1 - 1) 1.0;
      if n2 > 0 then Sparse.Triplet.add_sym gtr row (n2 - 1) (-1.0))
    inds;
  let g = Sparse.Csr.of_triplet gtr in
  (* C = [[AᶜᵀCAᶜ, 0]; [0, −ℒ]] *)
  let ctr = Sparse.Triplet.create n n in
  List.iter
    (fun e ->
      match e with
      | Netlist.Capacitor { n1; n2; farads; _ } -> stamp_pair ctr n1 n2 farads
      | Netlist.Resistor _ | Netlist.Inductor _ | Netlist.Mutual _
      | Netlist.Current_source _ | Netlist.Voltage_source _ | Netlist.Vccs _
      | Netlist.Nonlinear_conductance _ ->
        ())
    (Netlist.elements nl);
  if ni > 0 && ni <= dense_inductance_max then begin
    let lmat = inductance_matrix nl in
    for i = 0 to ni - 1 do
      for j = 0 to ni - 1 do
        let v = Linalg.Mat.get lmat i j in
        if v <> 0.0 then Sparse.Triplet.add ctr (nn + i) (nn + j) (-.v)
      done
    done
  end
  else if ni > 0 then begin
    (* sparse ℒ stamping for the 10⁴–10⁵ partial-inductance regime: a
       dense ℒ would be O(ni²) memory; windowed k-coupling keeps the
       triplet linear in the K-card count. The dense branch above is
       kept verbatim for small ni so existing goldens stay
       bit-identical. *)
    let values = Array.of_list (List.map (fun (_, _, _, h) -> h) inds) in
    let index = inductor_index nl in
    Array.iteri
      (fun i h -> Sparse.Triplet.add ctr (nn + i) (nn + i) (-.h))
      values;
    List.iter
      (fun e ->
        match e with
        | Netlist.Mutual { l1; l2; k; _ } ->
          let i = Hashtbl.find index l1 and j = Hashtbl.find index l2 in
          let mij = k *. sqrt (values.(i) *. values.(j)) in
          Sparse.Triplet.add ctr (nn + i) (nn + j) (-.mij);
          Sparse.Triplet.add ctr (nn + j) (nn + i) (-.mij)
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
        | Netlist.Current_source _ | Netlist.Voltage_source _ | Netlist.Vccs _
        | Netlist.Nonlinear_conductance _ ->
          ())
      (Netlist.elements nl)
  end;
  let c = Sparse.Csr.of_triplet ctr in
  let b_nodal = port_matrix nl nn in
  let b = Linalg.Mat.create n (Netlist.port_count nl) in
  for i = 0 to nn - 1 do
    for j = 0 to Netlist.port_count nl - 1 do
      Linalg.Mat.set b i j (Linalg.Mat.get b_nodal i j)
    done
  done;
  {
    n;
    n_nodes = nn;
    g;
    c;
    b;
    port_names = port_names nl;
    gain = Unit;
    variable = S;
    spd = false;
  }

let assemble_rc nl =
  require_linear nl;
  require_ports nl;
  require_couplings nl;
  let s = Netlist.stats nl in
  if s.Netlist.inductors_ > 0 then begin
    let offender =
      List.find_opt
        (fun (e, _) -> match e with Netlist.Inductor _ -> true | _ -> false)
        (Netlist.elements_with_origin nl)
    in
    match offender with
    | Some (e, o) ->
      Diagnostic.user_errorf "Mna.assemble_rc: netlist contains inductor %s%s"
        (Netlist.element_name e) (where_of o)
    | None -> Diagnostic.user_errorf "Mna.assemble_rc: netlist contains inductors"
  end;
  let nn = Netlist.num_nodes nl in
  {
    n = nn;
    n_nodes = nn;
    g = conductance_nodal nl nn;
    c = capacitance_nodal nl nn;
    b = port_matrix nl nn;
    port_names = port_names nl;
    gain = Unit;
    variable = S;
    spd = Netlist.all_values_positive nl;
  }

let assemble_rl nl =
  require_linear nl;
  require_ports nl;
  require_couplings nl;
  let s = Netlist.stats nl in
  if s.Netlist.capacitors > 0 then
    Diagnostic.user_errorf "Mna.assemble_rl: netlist contains capacitors";
  let nn = Netlist.num_nodes nl in
  {
    n = nn;
    n_nodes = nn;
    g = inductive_nodal_g nl;
    c = conductance_nodal nl nn;
    b = port_matrix nl nn;
    port_names = port_names nl;
    gain = Times_s;
    variable = S;
    spd = Netlist.all_values_positive nl;
  }

let assemble_lc nl =
  require_linear nl;
  require_ports nl;
  require_couplings nl;
  let s = Netlist.stats nl in
  if s.Netlist.resistors > 0 then
    Diagnostic.user_errorf "Mna.assemble_lc: netlist contains resistors";
  let nn = Netlist.num_nodes nl in
  {
    n = nn;
    n_nodes = nn;
    g = inductive_nodal_g nl;
    c = capacitance_nodal nl nn;
    b = port_matrix nl nn;
    port_names = port_names nl;
    gain = Times_s;
    variable = S_squared;
    spd = Netlist.all_values_positive nl;
  }

let auto nl =
  match Netlist.classify nl with
  | `Rc -> assemble_rc nl
  | `Rl -> assemble_rl nl
  | `Lc -> assemble_lc nl
  | `Rlc -> assemble nl
  | `General ->
    Diagnostic.user_errorf
      "Mna.auto: nonlinear/controlled elements present — run `symor lint` for \
       the offending cards"

let pencil_pattern m =
  let tr = Sparse.Triplet.create m.n m.n in
  for i = 0 to m.n - 1 do
    Sparse.Csr.iter_row m.g i (fun j _ -> Sparse.Triplet.add tr i j 1.0);
    Sparse.Csr.iter_row m.c i (fun j _ -> Sparse.Triplet.add tr i j 1.0)
  done;
  Sparse.Csr.of_triplet tr

let unknown_label m row =
  if row < 0 || row >= m.n then invalid_arg "Mna.unknown_label: row out of range"
  else if row < m.n_nodes then Printf.sprintf "node-voltage unknown %d" (row + 1)
  else Printf.sprintf "inductor-current unknown %d" (row - m.n_nodes + 1)

let observe_inductor_current nl mna l_name =
  let idx = Netlist.find_inductor nl l_name in
  match (mna.variable, mna.gain) with
  | S, Unit ->
    (* general form: inductor currents are trailing unknowns *)
    if mna.n = mna.n_nodes then
      Diagnostic.user_errorf
        "Mna.observe_inductor_current: no inductor unknowns in this form";
    Linalg.Vec.basis mna.n (mna.n_nodes + idx)
  | S_squared, _ ->
    (* LC form: w = Aˡᵀ ℒ⁻¹ b (paper Section 7.1) *)
    let lmat = inductance_matrix nl in
    let al = inductor_incidence nl in
    let chol = Linalg.Chol.factor lmat in
    let bsel = Linalg.Vec.basis (List.length (Netlist.inductors nl)) idx in
    let linv_b = Linalg.Chol.solve chol bsel in
    Linalg.Mat.mul_trans_vec al linv_b
  | S, Times_s ->
    Diagnostic.user_errorf
      "Mna.observe_inductor_current: not available for the RL form"

let append_output_column mna w name =
  assert (Linalg.Vec.dim w = mna.n);
  let p = mna.b.Linalg.Mat.cols in
  let b = Linalg.Mat.create mna.n (p + 1) in
  for i = 0 to mna.n - 1 do
    for j = 0 to p - 1 do
      Linalg.Mat.set b i j (Linalg.Mat.get mna.b i j)
    done;
    Linalg.Mat.set b i p w.(i)
  done;
  { mna with b; port_names = Array.append mna.port_names [| name |] }

(* ---------- second-order structure ---------- *)

type second_order_stats = {
  inductor_loops : int;
  coupling_density : float;
  chosen_form : string;
}

(* independent cycles in the inductor subgraph (ground included as a
   vertex): every inductor branch whose endpoints are already
   connected closes one loop *)
let count_inductor_loops nl =
  let nn = Netlist.num_nodes nl in
  let parent = Array.init (nn + 1) (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let loops = ref 0 in
  List.iter
    (fun (_, n1, n2, _) ->
      let a = find n1 and b = find n2 in
      if a = b then incr loops else parent.(a) <- b)
    (Netlist.inductors nl);
  !loops

let second_order_stats nl =
  let s = Netlist.stats nl in
  let ni = s.Netlist.inductors_ in
  let pairs = ni * (ni - 1) / 2 in
  let coupling_density =
    if pairs = 0 then 0.0 else float_of_int s.Netlist.mutuals /. float_of_int pairs
  in
  let chosen_form =
    match Netlist.classify nl with
    | `Rc -> "first-order RC (G + sC)"
    | `Rl -> "susceptance RL (Γ + sG, gain s)"
    | `Lc -> "s²-variable LC (Γ + s²C, gain s)"
    | `Rlc -> "general RLC (G + sC, node voltages then inductor currents)"
    | `General -> "general (not reducible)"
  in
  { inductor_loops = count_inductor_loops nl; coupling_density; chosen_form }
