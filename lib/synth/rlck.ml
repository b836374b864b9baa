type stats = {
  nodes : int;
  resistors : int;
  capacitors : int;
  inductors : int;
  negative_elements : int;
  dropped_entries : int;
}

exception Not_synthesizable = Multiport.Not_synthesizable

(* The SPRIM model keeps the node/current block structure, so we can
   eliminate the reduced current block analytically:

     Z(s) = s·B̂ᵀ(s²Ĉn + sĜn + Âᵀℒ̂⁻¹Â)⁻¹B̂

   Port-align within the node block only (z = S₁v with B̂ᵀS₁ = [I_p 0])
   and the three transformed matrices are exactly the nodal
   conductance D' = S₁ᵀĜnS₁, capacitance M' = S₁ᵀĈnS₁ and inductive
   susceptance K' = S₁ᵀÂᵀℒ̂⁻¹ÂS₁ of an RLC netlist over n₁ nodes —
   realised branch-by-branch below. The susceptance expansion absorbs
   the reduced mutual couplings: Γ = K' is reproduced exactly by
   uncoupled branch inductors L = 1/γ, so no K cards are needed in
   the output even though the input model carries a dense ℒ̂. *)
let synthesize ?(drop_tol = 1e-9) ~port_names (m : Sympvl.Sprim.t) =
  let p = m.Sympvl.Sprim.bn.Linalg.Mat.cols in
  if Array.length port_names <> p then invalid_arg "Rlck.synthesize: port name count";
  let n1 = m.Sympvl.Sprim.n1 and n2 = m.Sympvl.Sprim.n2 in
  if n1 < p then raise (Not_synthesizable "node block smaller than port count");
  let s1 = Multiport.port_aligning_transform m.Sympvl.Sprim.bn in
  let d' = Linalg.Mat.sym_part (Linalg.Mat.congruence s1 m.Sympvl.Sprim.gn) in
  let m' = Linalg.Mat.sym_part (Linalg.Mat.congruence s1 m.Sympvl.Sprim.cn) in
  let k' =
    if n2 = 0 then Linalg.Mat.create n1 n1
    else begin
      let a' = Linalg.Mat.mul m.Sympvl.Sprim.a s1 in
      let ch =
        try Linalg.Chol.factor m.Sympvl.Sprim.lmat
        with Linalg.Chol.Not_positive_definite _ ->
          raise
            (Not_synthesizable "reduced inductance block is not positive definite")
      in
      Linalg.Mat.sym_part
        (Linalg.Mat.mul (Linalg.Mat.transpose a') (Linalg.Chol.solve_mat ch a'))
    end
  in
  let nl = Circuit.Netlist.create () in
  let nodes =
    Array.init n1 (fun i ->
        if i < p then Circuit.Netlist.node nl port_names.(i)
        else Circuit.Netlist.node nl (Printf.sprintf "x%d" (i - p + 1)))
  in
  let r_count = ref 0
  and c_count = ref 0
  and l_count = ref 0
  and neg = ref 0
  and dropped = ref 0 in
  (* Identical stamping convention to Multiport.realize: off-diagonal
     entry m_ij (i < j) ↦ branch of value −m_ij between nodes i and j,
     row-sum remainder ↦ branch to ground. For the inductor layer the
     branch value is a susceptance γ, stored as L = 1/γ. *)
  let realize mat kind =
    let scale = Float.max (Linalg.Mat.max_abs mat) 1e-300 in
    let add_branch na nb v name =
      (match kind with
      | `Resistor ->
        Circuit.Netlist.add nl
          (Circuit.Netlist.Resistor { name; n1 = na; n2 = nb; ohms = 1.0 /. v });
        incr r_count
      | `Capacitor ->
        Circuit.Netlist.add nl
          (Circuit.Netlist.Capacitor { name; n1 = na; n2 = nb; farads = v });
        incr c_count
      | `Inductor ->
        Circuit.Netlist.add nl
          (Circuit.Netlist.Inductor { name; n1 = na; n2 = nb; henries = 1.0 /. v });
        incr l_count);
      if v < 0.0 then incr neg
    in
    let prefix =
      match kind with `Resistor -> "Rs" | `Capacitor -> "Cs" | `Inductor -> "Ls"
    in
    for i = 0 to n1 - 1 do
      let row_sum = ref 0.0 in
      for j = 0 to n1 - 1 do
        if j <> i then row_sum := !row_sum +. Linalg.Mat.get mat i j
      done;
      let gnd = Linalg.Mat.get mat i i +. !row_sum in
      if Float.abs gnd > drop_tol *. scale then
        add_branch nodes.(i) 0 gnd (Printf.sprintf "%sg%d" prefix (i + 1))
      else if gnd <> 0.0 then incr dropped;
      for j = i + 1 to n1 - 1 do
        let v = -.Linalg.Mat.get mat i j in
        if Float.abs v > drop_tol *. scale then
          add_branch nodes.(i) nodes.(j) v
            (Printf.sprintf "%s%d_%d" prefix (i + 1) (j + 1))
        else if v <> 0.0 then incr dropped
      done
    done
  in
  realize d' `Resistor;
  realize m' `Capacitor;
  realize k' `Inductor;
  Array.iteri
    (fun i name -> if i < p then Circuit.Netlist.add_port nl name nodes.(i))
    port_names;
  ( nl,
    {
      nodes = Circuit.Netlist.num_nodes nl;
      resistors = !r_count;
      capacitors = !c_count;
      inductors = !l_count;
      negative_elements = !neg;
      dropped_entries = !dropped;
    } )
