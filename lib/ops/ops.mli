(** The operations layer: one request path under both front ends,
    [symor <cmd>] and [symor serve].

    A {!request} is what a user asks of [reduce], [certify], [ac],
    [sparams] or [tran]. This module owns its defaults ({!default}),
    its accepted ranges ({!check}), the engine lookup ({!engine}), the
    work both surfaces share ({!model}, {!certify}, {!tran}) and the
    one table that turns a user-level exception into a one-line
    message ({!guard}). The CLI decodes flags, the daemon decodes
    JSON; both then format the result. The only thing a surface
    supplies to this layer is how it spells a field name in a hint
    ([--shift] on the command line, ["shift"] on the wire). *)

type op = Reduce | Certify | Ac | Sparams | Tran

type request = {
  op : op;
  engine : Sympvl.Rom.engine;
  order : int;
      (** Reduced order; [0] asks [Certify] for the automatic order
          (see {!order}). *)
  shift : float option;  (** Explicit expansion point [s₀]. *)
  band : (float * float) option;
      (** Frequency band (Hz) guiding the automatic shift. *)
  freqs : float array option;
      (** Explicit AC grid (Hz); [None] takes the log grid below. *)
  flo : float;
  fhi : float;
  points : int;
  z0 : float;  (** S-parameter reference impedance, ohms. *)
  dt : float;  (** Transient time step, s. *)
  t_stop : float;  (** Transient stop time, s. *)
  observe : string list;  (** Node names a transient records. *)
}

val default : op -> request
(** The request defaults, the only place they are written: engine
    [sympvl], order 20 (0 = automatic for [Certify]), no shift or band,
    no explicit grid, 100 log points on 1e6–1e10 Hz, [z0] = 50 ohms,
    [dt] = 1e-11 s, [t_stop] = 1e-8 s, nothing observed. *)

exception Invalid of string * string
(** [(field, message)]: a request field, by its request name
    (["order"], ["band"], …), outside its accepted range, or
    ["engine"] for an unknown engine name. The message reads the same
    on both surfaces. *)

val engine : string -> Sympvl.Rom.engine
(** Engine lookup by name ({!Sympvl.Rom.of_name}).
    @raise Invalid [("engine", _)] listing the known engines and
    where the AWE and MPVL baselines run ([bench tabD]/[tabG],
    [examples/compare_methods.ml]). *)

val check : request -> request
(** The request itself when every field is in range:
    - [order] > 0 for [Reduce], >= 0 for [Certify];
    - [band] with 0 < lo < hi;
    - an explicit grid non-empty, at most 100 000 points, all positive;
      else 0 < [flo] < [fhi] and [points] in [2, 100 000];
    - [z0] > 0;
    - for [Tran], 0 < [dt] < [t_stop] and a non-empty [observe].

    @raise Invalid naming the first field out of range. *)

val freqs : request -> float array
(** The AC grid: the explicit [freqs], else [points] log-spaced on
    [flo, fhi]. *)

val order : request -> Circuit.Mna.t -> int
(** The order {!model} reduces to: the request's, except that
    [Certify] at order 0 takes the full pencil size (every check then
    a theorem test). *)

val model : ctx:Sympvl.Pencil.t -> request -> Circuit.Mna.t -> Sympvl.Rom.model
(** {!Sympvl.Rom.reduce} of the request's engine at {!order}, [shift]
    and [band], on the shared pencil context.
    @raise Sympvl.Rom.Unsupported when {!Sympvl.Rom.supports} says no. *)

val certify :
  ctx:Sympvl.Pencil.t ->
  request ->
  Sympvl.Rom.model ->
  Circuit.Mna.t ->
  Sympvl.Certify.report
(** {!Sympvl.Certify.run} of a model [ctx] built for this request: the
    MOD009 drift band is [band]; a given [shift] counts as user-chosen
    (MOD008). *)

val tran : request -> Circuit.Netlist.t -> Simulate.Transient.result
(** Transient run over [dt]/[t_stop] recording the [observe] nodes.
    @raise Circuit.Diagnostic.User_error on a node name the netlist
    does not have. *)

type failure = { line : int option;  (** Netlist line, when known. *) message : string }

val guard :
  spell:(string -> string) ->
  ?op:op ->
  ((Circuit.Mna.t -> unit) -> 'a) ->
  ('a, failure) result
(** [guard ~spell ?op f] runs [f seen] and turns a user-level
    exception into a one-line {!failure}: a netlist parse error (with
    its line), {!Invalid}, {!Circuit.Diagnostic.User_error},
    [Sys_error], {!Sympvl.Rom.Unsupported}, {!Sympvl.Factor.Singular} and
    {!Simulate.Transient.Convergence_failure}. Every other exception
    propagates.

    [f] hands the pencil it assembled to [seen], so a zero pivot names
    its unknown; only the ops that take a shift ([Reduce], [Certify])
    are told to set one. Hints name a field (["shift"], ["band"]) as
    [spell] writes it. *)
