(** Severity-graded, machine-readable findings.

    One diagnostic type is shared by the whole findings pipeline: the
    static netlist linter ([Analysis.Lint]), the structure analysis
    ([Analysis.Struct_rules]), the reduced-model certification
    ([Sympvl.Certify]) and the [symor] CLI. A diagnostic
    carries a stable rule [code] (documented in README "Diagnostics &
    linting"), a severity, a human-readable message and, when the
    finding traces back to a netlist card, the 1-based source [line]
    (see {!Netlist.origin}). *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** Stable rule identifier, e.g. ["NET005"]. *)
  severity : severity;
  message : string;
  line : int option;  (** 1-based netlist line, when known. *)
}

exception User_error of string
(** A user-level problem (bad input, unsupported element class, …) —
    the CLI reports these as one-line errors without a backtrace.
    Internal invariant violations must {e not} use this exception. *)

val user_errorf : ('a, unit, string, 'b) format4 -> 'a
(** [user_errorf fmt …] raises {!User_error} with a formatted message. *)

val make : ?line:int -> code:string -> severity:severity -> string -> t

val error : ?line:int -> string -> string -> t
(** [error code message]. *)

val warning : ?line:int -> string -> string -> t

val info : ?line:int -> string -> string -> t

val severity_to_string : severity -> string

val compare : t -> t -> int
(** Orders by severity (errors first), then source line, then code. *)

val sort : t list -> t list

val count : severity -> t list -> int

val worst : t list -> severity option
(** Highest severity present; [None] for an empty report. *)

val exit_code : strict:bool -> t list -> int
(** CLI exit-code contract: [0] when no errors or warnings are
    present (infos are fine), [1] for warnings only, [2] when errors
    are present — or when warnings are present and [strict] promotes
    them to errors. *)

val pp : Format.formatter -> t -> unit
(** [error NET004 (line 7): duplicate element name "R1"]. *)

val to_json : t -> string
(** One finding as a JSON object
    [{"code":…,"severity":…,"message":…,"line":…}] ([line] is [null]
    when unknown). *)

val list_to_json : t list -> string
(** A JSON array of {!to_json} objects, one per line. *)
