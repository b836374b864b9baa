type options = {
  dt : float;
  t_stop : float;
  method_ : [ `Backward_euler | `Trapezoidal ];
  newton_tol : float;
  newton_max : int;
}

let default ~dt ~t_stop =
  { dt; t_stop; method_ = `Trapezoidal; newton_tol = 1e-9; newton_max = 50 }

type reduced_stamp = {
  model : Sympvl.Model.t;
  terminals : (Circuit.Netlist.node * Circuit.Netlist.node) array;
}

type result = {
  times : float array;
  voltages : (string * float array) list;
  steps : int;
  newton_iterations : int;
  factorizations : int;
  backend : [ `Skyline | `Dense ];
}

exception Convergence_failure of float

type nonlinear_element = {
  nl_n1 : int; (* MNA row (node − 1) or −1 for ground *)
  nl_n2 : int;
  i_of_v : float -> float;
  di_dv : float -> float;
}

type source = { src_n1 : int; src_n2 : int; wave : Circuit.Waveform.t }

type vsource = { vs_row : int; vs_wave : Circuit.Waveform.t }

(* assembled time-domain system:  G x + q(x) + C ẋ = b(t) *)
type system = {
  n : int;
  n_nodes : int; (* leading node voltages; inductor currents follow *)
  g : Sparse.Csr.t;
  c : Sparse.Csr.t;
  sources : source list;
  vsources : vsource list;
  nonlinear : nonlinear_element list;
  symmetric : bool;
}

let row_of_node nd = nd - 1

let assemble nl reduced =
  let nn = Circuit.Netlist.num_nodes nl in
  let inds = Circuit.Netlist.inductors nl in
  let ni = List.length inds in
  let nvs = (Circuit.Netlist.stats nl).Circuit.Netlist.vsources in
  (* layout: [node voltages | inductor currents | voltage-source branch
     currents | per-stamp states and port currents] *)
  let stamp_offsets = ref [] in
  let total = ref (nn + ni + nvs) in
  List.iter
    (fun st ->
      let order = st.model.Sympvl.Model.order in
      let p = st.model.Sympvl.Model.p in
      if st.model.Sympvl.Model.variable <> Circuit.Mna.S then
        invalid_arg "Transient: reduced stamp must be an s-variable model";
      if Array.length st.terminals <> p then
        invalid_arg "Transient: stamp terminal count must equal model port count";
      stamp_offsets := (!total, st) :: !stamp_offsets;
      total := !total + order + p)
    reduced;
  let stamp_offsets = List.rev !stamp_offsets in
  let n = !total in
  let gtr = Sparse.Triplet.create n n in
  let ctr = Sparse.Triplet.create n n in
  let sources = ref [] in
  let vsources = ref [] in
  let next_vs = ref (nn + ni) in
  let nonlinear = ref [] in
  let symmetric = ref true in
  let stamp_pair tr n1 n2 v =
    let i = row_of_node n1 and j = row_of_node n2 in
    if i >= 0 then Sparse.Triplet.add tr i i v;
    if j >= 0 then Sparse.Triplet.add tr j j v;
    if i >= 0 && j >= 0 then begin
      Sparse.Triplet.add tr i j (-.v);
      Sparse.Triplet.add tr j i (-.v)
    end
  in
  List.iter
    (fun e ->
      match e with
      | Circuit.Netlist.Resistor { n1; n2; ohms; _ } -> stamp_pair gtr n1 n2 (1.0 /. ohms)
      | Circuit.Netlist.Capacitor { n1; n2; farads; _ } -> stamp_pair ctr n1 n2 farads
      | Circuit.Netlist.Inductor _ | Circuit.Netlist.Mutual _ -> () (* below *)
      | Circuit.Netlist.Current_source { n1; n2; wave; _ } ->
        sources := { src_n1 = row_of_node n1; src_n2 = row_of_node n2; wave } :: !sources
      | Circuit.Netlist.Voltage_source { n1; n2; wave; _ } ->
        (* branch current unknown: v(n1) − v(n2) = wave(t) *)
        let row = !next_vs in
        incr next_vs;
        let i = row_of_node n1 and j = row_of_node n2 in
        if i >= 0 then begin
          Sparse.Triplet.add gtr row i 1.0;
          Sparse.Triplet.add gtr i row 1.0
        end;
        if j >= 0 then begin
          Sparse.Triplet.add gtr row j (-1.0);
          Sparse.Triplet.add gtr j row (-1.0)
        end;
        vsources := { vs_row = row; vs_wave = wave } :: !vsources
      | Circuit.Netlist.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
        symmetric := false;
        let op = row_of_node out_p
        and on = row_of_node out_n
        and ip = row_of_node in_p
        and inn = row_of_node in_n in
        if op >= 0 && ip >= 0 then Sparse.Triplet.add gtr op ip gm;
        if op >= 0 && inn >= 0 then Sparse.Triplet.add gtr op inn (-.gm);
        if on >= 0 && ip >= 0 then Sparse.Triplet.add gtr on ip (-.gm);
        if on >= 0 && inn >= 0 then Sparse.Triplet.add gtr on inn gm
      | Circuit.Netlist.Nonlinear_conductance { n1; n2; i_of_v; di_dv; _ } ->
        nonlinear :=
          { nl_n1 = row_of_node n1; nl_n2 = row_of_node n2; i_of_v; di_dv }
          :: !nonlinear)
    (Circuit.Netlist.elements nl);
  (* inductors: branch-current unknowns with the eq.-(3) saddle stamp *)
  List.iteri
    (fun k (_, n1, n2, _) ->
      let row = nn + k in
      let i = row_of_node n1 and j = row_of_node n2 in
      if i >= 0 then begin
        Sparse.Triplet.add gtr row i 1.0;
        Sparse.Triplet.add gtr i row 1.0
      end;
      if j >= 0 then begin
        Sparse.Triplet.add gtr row j (-1.0);
        Sparse.Triplet.add gtr j row (-1.0)
      end)
    inds;
  if ni > 0 then begin
    let lm = Circuit.Mna.inductance_matrix nl in
    for a = 0 to ni - 1 do
      for b = 0 to ni - 1 do
        let v = Linalg.Mat.get lm a b in
        if v <> 0.0 then Sparse.Triplet.add ctr (nn + a) (nn + b) (-.v)
      done
    done
  end;
  (* reduced-model stamps (symmetric saddle form):
       [ Gn   0    P ] [v ]     [ Cn  0  0 ]
       [ 0    Ĝ   −ρ ] [x̂ ]  +  [ 0   Ĉ  0 ] d/dt = b
       [ Pᵀ  −ρᵀ   0 ] [ip]     [ 0   0  0 ]                      *)
  List.iter
    (fun (off, st) ->
      let order = st.model.Sympvl.Model.order in
      let p = st.model.Sympvl.Model.p in
      let ghat, chat, rho =
        match st.model.Sympvl.Model.real.Sympvl.Realisation.sym with
        | Some form -> form
        | None -> invalid_arg "Transient: reduced stamp needs a symmetric-form model"
      in
      for a = 0 to order - 1 do
        for b = 0 to order - 1 do
          let gv = Linalg.Mat.get ghat a b in
          if gv <> 0.0 then Sparse.Triplet.add gtr (off + a) (off + b) gv;
          let cv = Linalg.Mat.get chat a b in
          if cv <> 0.0 then Sparse.Triplet.add ctr (off + a) (off + b) cv
        done;
        for c = 0 to p - 1 do
          let rv = Linalg.Mat.get rho a c in
          if rv <> 0.0 then begin
            Sparse.Triplet.add gtr (off + a) (off + order + c) (-.rv);
            Sparse.Triplet.add gtr (off + order + c) (off + a) (-.rv)
          end
        done
      done;
      Array.iteri
        (fun c (plus, minus) ->
          let ip_row = off + order + c in
          let pi = row_of_node plus and mi = row_of_node minus in
          if pi >= 0 then begin
            Sparse.Triplet.add gtr pi ip_row 1.0;
            Sparse.Triplet.add gtr ip_row pi 1.0
          end;
          if mi >= 0 then begin
            Sparse.Triplet.add gtr mi ip_row (-1.0);
            Sparse.Triplet.add gtr ip_row mi (-1.0)
          end)
        st.terminals)
    stamp_offsets;
  {
    n;
    n_nodes = nn;
    g = Sparse.Csr.of_triplet gtr;
    c = Sparse.Csr.of_triplet ctr;
    sources = List.rev !sources;
    vsources = List.rev !vsources;
    nonlinear = List.rev !nonlinear;
    symmetric = !symmetric;
  }

(* b(t): source currents into nodes *)
let rhs_at sys t b =
  Linalg.Vec.fill b 0.0;
  List.iter
    (fun s ->
      let v = Circuit.Waveform.eval s.wave t in
      if s.src_n2 >= 0 then b.(s.src_n2) <- b.(s.src_n2) +. v;
      if s.src_n1 >= 0 then b.(s.src_n1) <- b.(s.src_n1) -. v)
    sys.sources;
  List.iter
    (fun vs -> b.(vs.vs_row) <- b.(vs.vs_row) +. Circuit.Waveform.eval vs.vs_wave t)
    sys.vsources

(* nonlinear KCL currents q(x) *)
let add_nonlinear_currents sys x q =
  List.iter
    (fun e ->
      let v1 = if e.nl_n1 >= 0 then x.(e.nl_n1) else 0.0 in
      let v2 = if e.nl_n2 >= 0 then x.(e.nl_n2) else 0.0 in
      let i = e.i_of_v (v1 -. v2) in
      if e.nl_n1 >= 0 then q.(e.nl_n1) <- q.(e.nl_n1) +. i;
      if e.nl_n2 >= 0 then q.(e.nl_n2) <- q.(e.nl_n2) -. i)
    sys.nonlinear

(* linear-solver backends over A = G + γC (+ nonlinear Jacobian) *)
type backend_state =
  | Dense_backend of Linalg.Mat.t (* dense A without nonlinear part *)
  | Skyline_backend of Sympvl.Pencil.t
    (* shared pencil context over (G, C): the planned ordering and
       symbolic phase run once; every Newton refactorisation is a pure
       numeric phase at shift γ with the Jacobian stamps as extras *)

let choose_backend sys reduced =
  (* voltage-source and reduced-stamp rows are saddle points (zero
     diagonal): the unpivoted skyline factorisation cannot be relied
     on there, so those systems go through dense LU *)
  if (not sys.symmetric) || reduced <> [] || sys.vsources <> [] || sys.n <= 60 then `Dense
  else `Skyline

let run ?opts ?(reduced = []) ~observe nl =
  let opts =
    match opts with Some o -> o | None -> default ~dt:1e-10 ~t_stop:1e-8
  in
  let sys = assemble nl reduced in
  let n = sys.n in
  let steps = int_of_float (Float.round (opts.t_stop /. opts.dt)) in
  let gamma =
    match opts.method_ with `Backward_euler -> 1.0 /. opts.dt | `Trapezoidal -> 2.0 /. opts.dt
  in
  let a_lin = Sparse.Csr.add ~alpha:1.0 ~beta:gamma sys.g sys.c in
  let backend_kind = choose_backend sys reduced in
  let factorizations = ref 0 in
  let newton_total = ref 0 in
  let backend =
    match backend_kind with
    | `Dense -> Dense_backend (Sparse.Csr.to_dense a_lin)
    | `Skyline ->
      (* no source or stamp rows here: the layout is the general RLC
         form's [node voltages | inductor currents] *)
      let ctx = Sympvl.Pencil.of_matrices ~nodes:sys.n_nodes sys.g sys.c in
      (* widen the shared envelope once so the per-iteration Jacobian
         stamps (which need not lie in the linear pattern) fit *)
      let positions =
        List.concat_map
          (fun e ->
            (if e.nl_n1 >= 0 then [ (e.nl_n1, e.nl_n1) ] else [])
            @ (if e.nl_n2 >= 0 then [ (e.nl_n2, e.nl_n2) ] else [])
            @
            if e.nl_n1 >= 0 && e.nl_n2 >= 0 then [ (e.nl_n1, e.nl_n2) ] else [])
          sys.nonlinear
      in
      if positions <> [] then Sympvl.Pencil.reserve ctx (Array.of_list positions);
      Skyline_backend ctx
  in
  (* factor A plus the nonlinear Jacobian stamps at linearisation
     point x (entries g_eq between the element nodes) *)
  let factor_with_jacobian x =
    incr factorizations;
    let jac_entries =
      List.map
        (fun e ->
          let v1 = if e.nl_n1 >= 0 then x.(e.nl_n1) else 0.0 in
          let v2 = if e.nl_n2 >= 0 then x.(e.nl_n2) else 0.0 in
          (e, e.di_dv (v1 -. v2)))
        sys.nonlinear
    in
    match backend with
    | Dense_backend base ->
      let a = Linalg.Mat.copy base in
      List.iter
        (fun (e, g) ->
          if e.nl_n1 >= 0 then Linalg.Mat.add_to a e.nl_n1 e.nl_n1 g;
          if e.nl_n2 >= 0 then Linalg.Mat.add_to a e.nl_n2 e.nl_n2 g;
          if e.nl_n1 >= 0 && e.nl_n2 >= 0 then begin
            Linalg.Mat.add_to a e.nl_n1 e.nl_n2 (-.g);
            Linalg.Mat.add_to a e.nl_n2 e.nl_n1 (-.g)
          end)
        jac_entries;
      let lu = Linalg.Lu.factor a in
      fun b -> Linalg.Lu.solve_vec lu b
    | Skyline_backend ctx ->
      let extra =
        List.concat_map
          (fun (e, g) ->
            (if e.nl_n1 >= 0 then [ (e.nl_n1, e.nl_n1, g) ] else [])
            @ (if e.nl_n2 >= 0 then [ (e.nl_n2, e.nl_n2, g) ] else [])
            @
            if e.nl_n1 >= 0 && e.nl_n2 >= 0 then [ (e.nl_n1, e.nl_n2, -.g) ]
            else [])
          jac_entries
      in
      let fac =
        if extra = [] then Sympvl.Pencil.factor ctx ~shift:gamma
        else Sympvl.Pencil.factor_with ctx ~shift:gamma ~extra:(Array.of_list extra)
      in
      (* the right-hand side is the solve's workspace: every caller
         below builds a fresh one per solve *)
      fun b ->
        let x = Linalg.Vec.create n in
        fac.Sympvl.Factor.solve b x;
        x
  in
  let linear = sys.nonlinear = [] in
  let solve_linear = if linear then Some (factor_with_jacobian (Linalg.Vec.create n)) else None in
  let x = Linalg.Vec.create n in
  let b_now = Linalg.Vec.create n and b_next = Linalg.Vec.create n in
  rhs_at sys 0.0 b_now;
  (* DC operating point: sources active at t = 0 need a consistent
     start (G x₀ + q(x₀) = b(0)); integrating a DAE from an
     inconsistent state makes trapezoidal ring and backward Euler
     smear. The Jacobian is regularised with a vanishing C term so
     floating nodes and inductor rows stay factorable. *)
  if Linalg.Vec.norm_inf b_now > 0.0 then begin
    let gamma_dc = gamma *. 1e-9 in
    let a_dc = Sparse.Csr.add ~alpha:1.0 ~beta:gamma_dc sys.g sys.c in
    let solve_dc jac_x =
      incr factorizations;
      let a = Sparse.Csr.to_dense a_dc in
      List.iter
        (fun e ->
          let v1 = if e.nl_n1 >= 0 then jac_x.(e.nl_n1) else 0.0 in
          let v2 = if e.nl_n2 >= 0 then jac_x.(e.nl_n2) else 0.0 in
          let g = e.di_dv (v1 -. v2) in
          if e.nl_n1 >= 0 then Linalg.Mat.add_to a e.nl_n1 e.nl_n1 g;
          if e.nl_n2 >= 0 then Linalg.Mat.add_to a e.nl_n2 e.nl_n2 g;
          if e.nl_n1 >= 0 && e.nl_n2 >= 0 then begin
            Linalg.Mat.add_to a e.nl_n1 e.nl_n2 (-.g);
            Linalg.Mat.add_to a e.nl_n2 e.nl_n1 (-.g)
          end)
        sys.nonlinear;
      let lu = Linalg.Lu.factor a in
      fun b -> Linalg.Lu.solve_vec lu b
    in
    let gx = Linalg.Vec.create n in
    let converged = ref false in
    let it = ref 0 in
    let max_it = if linear then 1 else opts.newton_max in
    while (not !converged) && !it < max_it do
      incr it;
      let solve = solve_dc x in
      Sparse.Csr.mul_vec_into sys.g x gx;
      let q = Linalg.Vec.create n in
      add_nonlinear_currents sys x q;
      let r = Linalg.Vec.init n (fun i -> b_now.(i) -. gx.(i) -. q.(i)) in
      let delta = solve r in
      Linalg.Vec.axpy 1.0 delta x;
      if
        Linalg.Vec.norm_inf delta
        <= opts.newton_tol *. Float.max 1.0 (Linalg.Vec.norm_inf x)
      then converged := true
    done;
    if (not linear) && not !converged then raise (Convergence_failure 0.0)
  end;
  let times = Array.make (steps + 1) 0.0 in
  let obs_rows = List.map (fun nd -> row_of_node nd) observe in
  let obs_data = List.map (fun _ -> Array.make (steps + 1) 0.0) observe in
  let record k =
    List.iteri
      (fun oi r ->
        (List.nth obs_data oi).(k) <- (if r >= 0 then x.(r) else 0.0))
      obs_rows
  in
  record 0;
  let gx = Linalg.Vec.create n and cx = Linalg.Vec.create n in
  for k = 1 to steps do
    let t_next = float_of_int k *. opts.dt in
    times.(k) <- t_next;
    rhs_at sys t_next b_next;
    (* right-hand side of the step equation *)
    let rhs = Linalg.Vec.create n in
    Sparse.Csr.mul_vec_into sys.c x cx;
    (match opts.method_ with
    | `Backward_euler ->
      for i = 0 to n - 1 do
        rhs.(i) <- b_next.(i) +. (gamma *. cx.(i))
      done
    | `Trapezoidal ->
      Sparse.Csr.mul_vec_into sys.g x gx;
      let q0 = Linalg.Vec.create n in
      add_nonlinear_currents sys x q0;
      for i = 0 to n - 1 do
        rhs.(i) <-
          b_next.(i) +. b_now.(i) +. (gamma *. cx.(i)) -. gx.(i) -. q0.(i)
      done);
    (* solve A x_{k+1} + q(x_{k+1}) = rhs by Newton *)
    (match solve_linear with
    | Some solve ->
      let xn = solve rhs in
      Array.blit xn 0 x 0 n
    | None ->
      let converged = ref false in
      let it = ref 0 in
      while (not !converged) && !it < opts.newton_max do
        incr it;
        incr newton_total;
        let solve = factor_with_jacobian x in
        (* residual r = rhs − A x − q(x); Newton update J δ = r *)
        let ax = Sparse.Csr.mul_vec a_lin x in
        let q = Linalg.Vec.create n in
        add_nonlinear_currents sys x q;
        let r = Linalg.Vec.create n in
        for i = 0 to n - 1 do
          r.(i) <- rhs.(i) -. ax.(i) -. q.(i)
        done;
        let delta = solve r in
        Linalg.Vec.axpy 1.0 delta x;
        if Linalg.Vec.norm_inf delta <= opts.newton_tol *. Float.max 1.0 (Linalg.Vec.norm_inf x)
        then converged := true
      done;
      if not !converged then raise (Convergence_failure t_next));
    Array.blit b_next 0 b_now 0 n;
    record k
  done;
  let names = List.map (fun nd -> Circuit.Netlist.node_name nl nd) observe in
  {
    times;
    voltages = List.combine names obs_data;
    steps;
    newton_iterations = !newton_total;
    factorizations = !factorizations;
    backend = backend_kind;
  }

let max_deviation r1 r2 =
  assert (Array.length r1.times = Array.length r2.times);
  List.fold_left2
    (fun acc (_, w1) (_, w2) ->
      let worst = ref acc in
      Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. w2.(i)))) w1;
      !worst)
    0.0 r1.voltages r2.voltages
