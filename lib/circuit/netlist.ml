type node = int

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Inductor of { name : string; n1 : node; n2 : node; henries : float }
  | Mutual of { name : string; l1 : string; l2 : string; k : float }
  | Current_source of { name : string; n1 : node; n2 : node; wave : Waveform.t }
  | Voltage_source of { name : string; n1 : node; n2 : node; wave : Waveform.t }
  | Vccs of {
      name : string;
      out_p : node;
      out_n : node;
      in_p : node;
      in_n : node;
      gm : float;
    }
  | Nonlinear_conductance of {
      name : string;
      n1 : node;
      n2 : node;
      i_of_v : float -> float;
      di_dv : float -> float;
    }

type port = { port_name : string; plus : node; minus : node }

type origin = { line : int }

type t = {
  names : (string, node) Hashtbl.t;
  mutable rev_names : string list; (* non-ground node names, newest first *)
  mutable name_array : string array option;
      (* [rev_names] in node order, built on demand; reset by [node] *)
  mutable next : node;
  mutable rev_elements : (element * origin option) list;
  mutable rev_ports : (port * origin option) list;
  mutable counter : int;
}

let create () =
  let names = Hashtbl.create 64 in
  Hashtbl.add names "0" 0;
  Hashtbl.add names "gnd" 0;
  Hashtbl.add names "GND" 0;
  {
    names;
    rev_names = [];
    name_array = None;
    next = 1;
    rev_elements = [];
    rev_ports = [];
    counter = 0;
  }

let node t name =
  match Hashtbl.find_opt t.names name with
  | Some n -> n
  | None ->
    let n = t.next in
    t.next <- n + 1;
    Hashtbl.add t.names name n;
    t.rev_names <- name :: t.rev_names;
    t.name_array <- None;
    n

let find_node t name =
  match Hashtbl.find_opt t.names name with
  | Some n -> n
  | None -> Diagnostic.user_errorf "unknown node %S (not in the netlist)" name

let fresh_node t prefix =
  let rec try_ k =
    let name = Printf.sprintf "%s#%d" prefix k in
    if Hashtbl.mem t.names name then try_ (k + 1) else node t name
  in
  t.counter <- t.counter + 1;
  try_ t.counter

let num_nodes t = t.next - 1

let node_name t n =
  if n = 0 then "0"
  else begin
    let names =
      match t.name_array with
      | Some a -> a
      | None ->
        let a = Array.of_list (List.rev t.rev_names) in
        t.name_array <- Some a;
        a
    in
    if n - 1 < Array.length names then names.(n - 1) else Printf.sprintf "<node %d>" n
  end

let check_node t n what =
  if n < 0 || n >= t.next then
    invalid_arg (Printf.sprintf "Netlist: %s references unknown node %d" what n)

let gen_name t prefix =
  t.counter <- t.counter + 1;
  Printf.sprintf "%s%d" prefix t.counter

let element_name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Mutual { name; _ }
  | Current_source { name; _ }
  | Voltage_source { name; _ }
  | Vccs { name; _ }
  | Nonlinear_conductance { name; _ } ->
    name

let inductors t =
  List.rev
    (List.filter_map
       (fun (e, _) ->
         match e with
         | Inductor { name; n1; n2; henries } -> Some (name, n1, n2, henries)
         | Resistor _ | Capacitor _ | Mutual _ | Current_source _ | Voltage_source _
         | Vccs _ | Nonlinear_conductance _ ->
           None)
       t.rev_elements)

let find_inductor t name =
  let rec go i = function
    | [] -> raise Not_found
    | (n, _, _, _) :: rest -> if String.equal n name then i else go (i + 1) rest
  in
  go 0 (inductors t)

(* Coupling defects that make the inductance matrix ill-defined (as
   opposed to merely indefinite, which |k| >= 1 causes and the linter
   reports as NET008). In insertion order, one entry per defect. *)
let coupling_problems t =
  (* hashed name set: this runs inside every MNA assembly, including
     the 10⁵-inductor PEEC generators where a linear scan per K card
     would be quadratic *)
  let known = Hashtbl.create 256 in
  List.iter
    (fun (e, _) ->
      match e with
      | Inductor { name; _ } -> Hashtbl.replace known name ()
      | Resistor _ | Capacitor _ | Mutual _ | Current_source _ | Voltage_source _
      | Vccs _ | Nonlinear_conductance _ ->
        ())
    t.rev_elements;
  let has_inductor name = Hashtbl.mem known name in
  List.rev
    (List.fold_left
       (fun acc (e, _) ->
         match e with
         | Mutual { name; l1; l2; k } ->
           let acc =
             if k = 0.0 then (name, "zero coupling coefficient") :: acc else acc
           in
           let acc =
             if String.equal l1 l2 then
               (name, Printf.sprintf "couples inductor %s to itself" l1) :: acc
             else acc
           in
           List.fold_left
             (fun acc l ->
               if has_inductor l then acc
               else (name, Printf.sprintf "references unknown inductor %s" l) :: acc)
             acc
             (if String.equal l1 l2 then [ l1 ] else [ l1; l2 ])
         | Resistor _ | Capacitor _ | Inductor _ | Current_source _
         | Voltage_source _ | Vccs _ | Nonlinear_conductance _ ->
           acc)
       [] (List.rev t.rev_elements))

(* The raw [add] accepts negative element values (reduced-circuit
   synthesis legitimately produces them, paper Section 6) and
   out-of-range coupling coefficients (so files carrying them can be
   parsed and then reported by the linter with line provenance). The
   named wrappers below enforce positivity / |k| < 1 for hand-written
   circuits. *)
let add t ?origin e =
  (match e with
  | Resistor { name; n1; n2; ohms } ->
    check_node t n1 name;
    check_node t n2 name;
    if ohms = 0.0 || not (Float.is_finite ohms) then
      invalid_arg (name ^ ": resistance must be finite and nonzero")
  | Capacitor { name; n1; n2; farads } ->
    check_node t n1 name;
    check_node t n2 name;
    if farads = 0.0 || not (Float.is_finite farads) then
      invalid_arg (name ^ ": capacitance must be finite and nonzero")
  | Inductor { name; n1; n2; henries } ->
    check_node t n1 name;
    check_node t n2 name;
    if henries = 0.0 || not (Float.is_finite henries) then
      invalid_arg (name ^ ": inductance must be finite and nonzero")
  | Mutual { name; k; _ } ->
    (* Self-coupling and unknown-inductor references are accepted here
       so parsed files carrying them reach the linter (NET017) with
       line provenance; [add_mutual] below stays strict, and the MNA
       assembly guards on {!coupling_problems}. *)
    if not (Float.is_finite k) then invalid_arg (name ^ ": coupling must be finite")
  | Current_source { name; n1; n2; _ } | Voltage_source { name; n1; n2; _ } ->
    check_node t n1 name;
    check_node t n2 name
  | Vccs { name; out_p; out_n; in_p; in_n; _ } ->
    check_node t out_p name;
    check_node t out_n name;
    check_node t in_p name;
    check_node t in_n name
  | Nonlinear_conductance { name; n1; n2; _ } ->
    check_node t n1 name;
    check_node t n2 name);
  t.rev_elements <- (e, origin) :: t.rev_elements

let add_resistor t ?name n1 n2 ohms =
  let name = match name with Some n -> n | None -> gen_name t "R" in
  if ohms <= 0.0 then invalid_arg (name ^ ": resistance must be positive");
  add t (Resistor { name; n1; n2; ohms })

let add_capacitor t ?name n1 n2 farads =
  let name = match name with Some n -> n | None -> gen_name t "C" in
  if farads <= 0.0 then invalid_arg (name ^ ": capacitance must be positive");
  add t (Capacitor { name; n1; n2; farads })

let add_inductor t ?name n1 n2 henries =
  let name = match name with Some n -> n | None -> gen_name t "L" in
  if henries <= 0.0 then invalid_arg (name ^ ": inductance must be positive");
  add t (Inductor { name; n1; n2; henries })

let add_mutual t ?name l1 l2 k =
  let name = match name with Some n -> n | None -> gen_name t "K" in
  if k = 0.0 || Float.abs k >= 1.0 then
    invalid_arg (name ^ ": coupling must satisfy 0 < |k| < 1");
  if String.equal l1 l2 then invalid_arg (name ^ ": self-coupling");
  (try
     ignore (find_inductor t l1);
     ignore (find_inductor t l2)
   with Not_found -> invalid_arg (name ^ ": coupling references unknown inductor"));
  add t (Mutual { name; l1; l2; k })

let add_current_source t ?name n1 n2 wave =
  let name = match name with Some n -> n | None -> gen_name t "I" in
  add t (Current_source { name; n1; n2; wave })

let add_voltage_source t ?name n1 n2 wave =
  let name = match name with Some n -> n | None -> gen_name t "V" in
  add t (Voltage_source { name; n1; n2; wave })

let add_thevenin_driver t ?name node r wave =
  let name = match name with Some n -> n | None -> gen_name t "V" in
  let internal = fresh_node t (name ^ "_drv") in
  add t (Voltage_source { name; n1 = internal; n2 = 0; wave });
  add_resistor t ~name:(name ^ "_rs") internal node r

let add_port t ?origin port_name ?(minus = 0) plus =
  check_node t plus port_name;
  check_node t minus port_name;
  t.rev_ports <- ({ port_name; plus; minus }, origin) :: t.rev_ports

let elements t = List.rev_map fst t.rev_elements

let elements_with_origin t = List.rev t.rev_elements

let ports t = List.rev_map fst t.rev_ports

let ports_with_origin t = List.rev t.rev_ports

let origin_of t name =
  let rec go = function
    | [] -> None
    | (e, o) :: rest -> if String.equal (element_name e) name then Some o else go rest
  in
  (* walk in insertion order so duplicates resolve to the first one *)
  match go (List.rev t.rev_elements) with Some o -> o | None -> None

let port_count t = List.length t.rev_ports

type stats = {
  nodes : int;
  resistors : int;
  capacitors : int;
  inductors_ : int;
  mutuals : int;
  sources : int;
  vsources : int;
  vccs_ : int;
  nonlinear : int;
}

let stats t =
  let z =
    {
      nodes = num_nodes t;
      resistors = 0;
      capacitors = 0;
      inductors_ = 0;
      mutuals = 0;
      sources = 0;
      vsources = 0;
      vccs_ = 0;
      nonlinear = 0;
    }
  in
  List.fold_left
    (fun s (e, _) ->
      match e with
      | Resistor _ -> { s with resistors = s.resistors + 1 }
      | Capacitor _ -> { s with capacitors = s.capacitors + 1 }
      | Inductor _ -> { s with inductors_ = s.inductors_ + 1 }
      | Mutual _ -> { s with mutuals = s.mutuals + 1 }
      | Current_source _ -> { s with sources = s.sources + 1 }
      | Voltage_source _ -> { s with vsources = s.vsources + 1 }
      | Vccs _ -> { s with vccs_ = s.vccs_ + 1 }
      | Nonlinear_conductance _ -> { s with nonlinear = s.nonlinear + 1 })
    z t.rev_elements

let all_values_positive t =
  List.for_all
    (fun (e, _) ->
      match e with
      | Resistor { ohms; _ } -> ohms > 0.0
      | Capacitor { farads; _ } -> farads > 0.0
      | Inductor { henries; _ } -> henries > 0.0
      | Mutual _ | Current_source _ | Voltage_source _ | Vccs _
      | Nonlinear_conductance _ ->
        true)
    t.rev_elements

let is_linear_rlc t =
  List.for_all
    (fun (e, _) ->
      match e with
      | Resistor _ | Capacitor _ | Inductor _ | Mutual _ | Current_source _ -> true
      | Voltage_source _ | Vccs _ | Nonlinear_conductance _ -> false)
    t.rev_elements

let classify t =
  let s = stats t in
  if s.vccs_ > 0 || s.nonlinear > 0 then `General
  else begin
    match (s.resistors > 0, s.capacitors > 0, s.inductors_ > 0) with
    | _, _, false -> `Rc (* R and/or C only (pure R / pure C degenerate here) *)
    | true, false, true -> `Rl
    | false, true, true -> `Lc
    | false, false, true -> `Rl (* pure L treated via the RL form *)
    | true, true, true -> `Rlc
  end

let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d R=%d C=%d L=%d K=%d I=%d V=%d VCCS=%d NL=%d" s.nodes s.resistors
    s.capacitors s.inductors_ s.mutuals s.sources s.vsources s.vccs_ s.nonlinear
