(** Circuit netlists.

    A netlist is a mutable builder over named nodes; node 0 is the
    datum (ground). Elements are the passive RLC set of the paper plus
    the source/controlled/nonlinear elements needed by the transient
    simulator and by reduced-circuit synthesis. *)

type node = int
(** 0 is ground; positive integers are circuit nodes. *)

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Inductor of { name : string; n1 : node; n2 : node; henries : float }
  | Mutual of { name : string; l1 : string; l2 : string; k : float }
      (** Inductive coupling between two named inductors,
          [M = k·√(L1·L2)], [|k| < 1]. *)
  | Current_source of { name : string; n1 : node; n2 : node; wave : Waveform.t }
      (** Positive current flows from [n1] through the source to [n2]
          (i.e. is injected into [n2]). *)
  | Voltage_source of { name : string; n1 : node; n2 : node; wave : Waveform.t }
      (** Ideal voltage source: [v(n1) − v(n2) = wave(t)]. Supported
          by the transient simulator (an extra branch-current
          unknown); the MOR path follows the paper and accepts only
          current excitations. *)
  | Vccs of {
      name : string;
      out_p : node;
      out_n : node;
      in_p : node;
      in_n : node;
      gm : float;
    }  (** Current [gm·(v_inp − v_inn)] from [out_p] to [out_n]. *)
  | Nonlinear_conductance of {
      name : string;
      n1 : node;
      n2 : node;
      i_of_v : float -> float;
      di_dv : float -> float;
    }
      (** Two-terminal nonlinear element: branch current as a function
          of branch voltage, plus its derivative (for Newton). *)

type port = { port_name : string; plus : node; minus : node }

type origin = { line : int }
(** Source provenance of an element or port: 1-based line number in
    the netlist file it was parsed from. Programmatically built
    netlists carry no origin. *)

type t

val create : unit -> t

val node : t -> string -> node
(** Intern a node by name; ["0"], ["gnd"] and ["GND"] are ground. *)

val find_node : t -> string -> node
(** Look up an existing node by name without interning it — for
    names that come from a user rather than from the netlist text
    ([tran --observe]); ground names resolve to 0.
    @raise Diagnostic.User_error when no element references [name]. *)

val fresh_node : t -> string -> node
(** Intern a fresh node with a unique name derived from the prefix. *)

val num_nodes : t -> int
(** Number of non-ground nodes. *)

val node_name : t -> node -> string

val add : t -> ?origin:origin -> element -> unit
(** Add an element, optionally tagged with its source {!origin}.
    Raises [Invalid_argument] for zero or non-finite R/L/C values,
    unknown-node references, and non-finite coupling coefficients.
    Negative values, [|k| >= 1] couplings, self-couplings and
    [Mutual] references to unknown inductors are {e accepted} here —
    synthesized reduced circuits legitimately carry negative elements
    (paper Section 6), and the linter ({!module:Analysis.Lint} in the
    analysis library) reports all of them with line provenance
    (NET007/NET008/NET017); the [add_*] wrappers below stay strict,
    and the MNA assembly refuses netlists with
    {!coupling_problems}. *)

val add_resistor : t -> ?name:string -> node -> node -> float -> unit

val add_capacitor : t -> ?name:string -> node -> node -> float -> unit

val add_inductor : t -> ?name:string -> node -> node -> float -> unit

val add_mutual : t -> ?name:string -> string -> string -> float -> unit
(** Strict wrapper: requires [0 < |k| < 1] and two distinct inductor
    names already present in the netlist. *)

val add_current_source : t -> ?name:string -> node -> node -> Waveform.t -> unit

val add_voltage_source : t -> ?name:string -> node -> node -> Waveform.t -> unit

val add_thevenin_driver : t -> ?name:string -> node -> float -> Waveform.t -> unit
(** [add_thevenin_driver t node r wave] — a voltage source with
    series resistance [r] driving [node] (a gate-driver model). *)

val add_port : t -> ?origin:origin -> string -> ?minus:node -> node -> unit
(** Declare a terminal pair as a port (default [minus] is ground).
    Port order is declaration order — it fixes the row/column order of
    the transfer-function matrix [Z(s)]. *)

val elements : t -> element list
(** In insertion order. *)

val elements_with_origin : t -> (element * origin option) list
(** In insertion order, with source provenance. *)

val ports : t -> port list

val ports_with_origin : t -> (port * origin option) list

val element_name : element -> string

val origin_of : t -> string -> origin option
(** Source origin of the first element with the given name. *)

val port_count : t -> int

val inductors : t -> (string * node * node * float) list
(** Name, nodes and value of every inductor, in insertion order. *)

val find_inductor : t -> string -> int
(** Index of an inductor in the {!inductors} order. Raises
    [Not_found]. *)

val coupling_problems : t -> (string * string) list
(** Mutual-coupling defects that make the inductance matrix
    ill-defined: zero coupling coefficient, self-coupling, or a
    reference to an unknown inductor. Each entry is
    [(element_name, message)], in insertion order; line provenance is
    recoverable via {!origin_of}. Out-of-range [|k| >= 1] is not
    listed here (the matrix stays well-defined, merely indefinite —
    lint rule NET008 reports it). *)

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

val stats : t -> stats

val all_values_positive : t -> bool
(** False when the netlist contains negative-valued R/L/C — possible
    for synthesized reduced circuits (paper Section 6), in which case
    the PSD structure of the MNA matrices is lost. *)

val is_linear_rlc : t -> bool
(** True when only R/L/C/K and current sources are present (the class
    the MOR front-end accepts). *)

val classify : t -> [ `Rc | `Rl | `Lc | `Rlc | `General ]
(** Topology class used to pick the specialised MNA form. [`General]
    means controlled/nonlinear elements are present. *)

val pp_stats : Format.formatter -> stats -> unit
