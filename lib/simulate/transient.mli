(** Transient (time-domain) circuit simulation.

    A SPICE-style MNA integrator: backward-Euler or trapezoidal time
    stepping, Newton iteration for nonlinear conductances, PWL /
    pulse / sine current sources. Unknowns are node voltages,
    inductor currents and — when reduced-order models are stamped
    in — their internal states and port currents (eq. (23) of the
    paper: this is the "stamped directly into the Jacobian" usage).

    Linear symmetric circuits use the shared pencil context
    ({!Sympvl.Pencil}) as the sparse backend with one
    factorisation for the whole run; circuits with reduced stamps or
    controlled sources use dense LU. *)

type options = {
  dt : float;  (** Fixed time step. *)
  t_stop : float;
  method_ : [ `Backward_euler | `Trapezoidal ];
  newton_tol : float;  (** Voltage-update convergence threshold. *)
  newton_max : int;
}

val default : dt:float -> t_stop:float -> options

type reduced_stamp = {
  model : Sympvl.Model.t;
      (** Must be a pencil in the [s] variable (RC/RL/RLC models) whose
          realisation has a symmetric form [(h0, h1, w)]; that form is
          what gets stamped. *)
  terminals : (Circuit.Netlist.node * Circuit.Netlist.node) array;
      (** (plus, minus) node pair per model port, in port order. *)
}

type result = {
  times : float array;
  voltages : (string * float array) list;
      (** Observed node name → waveform. *)
  steps : int;
  newton_iterations : int;  (** Total across the run. *)
  factorizations : int;
  backend : [ `Skyline | `Dense ];
}

exception Convergence_failure of float
(** Newton failed at the reported simulation time. *)

val run :
  ?opts:options ->
  ?reduced:reduced_stamp list ->
  observe:Circuit.Netlist.node list ->
  Circuit.Netlist.t ->
  result
(** Simulate from a zero initial state ([x(0) = 0]; sources should
    start at their [t = 0] values for a consistent DC start). The
    [observe] nodes' voltages are recorded at every step. *)

val max_deviation : result -> result -> float
(** Largest pointwise voltage difference between two runs with the
    same time base and observation list (waveform comparison for the
    Fig.-5 experiment). *)
