type stats = {
  nodes : int;
  resistors : int;
  capacitors : int;
  negative_elements : int;
  dropped_entries : int;
}

exception Not_synthesizable of string

(* S with ρᵀS = [I_p 0]: first block Q·R⁻ᵀ from the thin QR of ρ,
   second block an orthonormal complement of range(ρ) *)
let port_aligning_transform rho =
  let n = rho.Linalg.Mat.rows and p = rho.Linalg.Mat.cols in
  let qr = Linalg.Qr.factor rho in
  if Linalg.Qr.rank qr < p then raise (Not_synthesizable "rank-deficient rho");
  let q = Linalg.Qr.q_thin qr in
  let r = Linalg.Qr.r qr in
  (* first block: solve Rᵀ yᵀ = qᵀ columnwise, i.e. columns of Q·R⁻ᵀ *)
  let rt = Linalg.Mat.transpose r in
  let rt_lu = Linalg.Lu.factor rt in
  let s1 =
    (* (Q R⁻ᵀ) column j = Q · (R⁻ᵀ e_j) = Q · solve(Rᵀ, e_j) *)
    Linalg.Mat.of_cols
      (List.init p (fun j ->
           Linalg.Mat.mul_vec q (Linalg.Lu.solve_vec rt_lu (Linalg.Vec.basis p j))))
  in
  (* complement: orthonormalise [q | I] and keep the trailing n − p *)
  let aug = Linalg.Mat.create n (p + n) in
  for i = 0 to n - 1 do
    for j = 0 to p - 1 do
      Linalg.Mat.set aug i j (Linalg.Mat.get q i j)
    done;
    Linalg.Mat.set aug i (p + i) 1.0
  done;
  let full, rank = Linalg.Qr.orthonormalize aug in
  if rank <> n then raise (Not_synthesizable "could not complete basis");
  let s = Linalg.Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to p - 1 do
      Linalg.Mat.set s i j (Linalg.Mat.get s1 i j)
    done;
    for j = p to n - 1 do
      Linalg.Mat.set s i j (Linalg.Mat.get full i j)
    done
  done;
  s

let synthesize ?(drop_tol = 1e-9) ~port_names (model : Sympvl.Model.t) =
  if model.Sympvl.Model.variable <> Circuit.Mna.S then
    raise (Not_synthesizable "pencil must be in the s variable");
  if model.Sympvl.Model.gain <> Circuit.Mna.Unit then
    raise (Not_synthesizable "RL-form gain not supported");
  let p = model.Sympvl.Model.p in
  if Array.length port_names <> p then invalid_arg "Multiport.synthesize: port name count";
  let n = model.Sympvl.Model.order in
  let ghat, chat, w =
    match model.Sympvl.Model.real.Sympvl.Realisation.sym with
    | Some form -> form
    | None -> raise (Not_synthesizable "no symmetric form (Delta or Delta*T asymmetric)")
  in
  let s = port_aligning_transform w in
  let g' = Linalg.Mat.congruence s ghat in
  let c' = Linalg.Mat.congruence s chat in
  (* realise g' with resistors, c' with capacitors: off-diagonal entry
     m_ij (i < j) ↦ branch of value −m_ij between nodes i and j;
     row-sum remainder ↦ branch to ground *)
  let nl = Circuit.Netlist.create () in
  let nodes =
    Array.init n (fun i ->
        if i < p then Circuit.Netlist.node nl port_names.(i)
        else Circuit.Netlist.node nl (Printf.sprintf "x%d" (i - p + 1)))
  in
  let r_count = ref 0 and c_count = ref 0 and neg = ref 0 and droppedc = ref 0 in
  let realize m kind =
    let scale = Float.max (Linalg.Mat.max_abs m) 1e-300 in
    let add_branch n1 n2 v name =
      match kind with
      | `Resistor ->
        Circuit.Netlist.add nl
          (Circuit.Netlist.Resistor { name; n1; n2; ohms = 1.0 /. v });
        incr r_count;
        if v < 0.0 then incr neg
      | `Capacitor ->
        Circuit.Netlist.add nl (Circuit.Netlist.Capacitor { name; n1; n2; farads = v });
        incr c_count;
        if v < 0.0 then incr neg
    in
    let prefix = match kind with `Resistor -> "Rs" | `Capacitor -> "Cs" in
    for i = 0 to n - 1 do
      let row_sum = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then row_sum := !row_sum +. Linalg.Mat.get m i j
      done;
      (* ground branch carries the row remainder *)
      let gnd = Linalg.Mat.get m i i +. !row_sum in
      if Float.abs gnd > drop_tol *. scale then
        add_branch nodes.(i) 0 gnd (Printf.sprintf "%sg%d" prefix (i + 1))
      else if gnd <> 0.0 then incr droppedc;
      for j = i + 1 to n - 1 do
        let v = -.Linalg.Mat.get m i j in
        if Float.abs v > drop_tol *. scale then
          add_branch nodes.(i) nodes.(j) v (Printf.sprintf "%s%d_%d" prefix (i + 1) (j + 1))
        else if v <> 0.0 then incr droppedc
      done
    done
  in
  realize g' `Resistor;
  realize c' `Capacitor;
  Array.iteri (fun i name -> if i < p then Circuit.Netlist.add_port nl name nodes.(i)) port_names;
  ( nl,
    {
      nodes = Circuit.Netlist.num_nodes nl;
      resistors = !r_count;
      capacitors = !c_count;
      negative_elements = !neg;
      dropped_entries = !droppedc;
    } )
