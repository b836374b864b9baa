(** Minimal zero-dependency JSON for the serve protocol.

    The daemon speaks newline-delimited JSON; this module is the
    codec. It is deliberately small: one value type, a recursive
    descent parser hardened for untrusted input (depth-limited so
    fuzzed nesting cannot overflow the stack, every failure a
    {!Parse_error}), and a printer whose float rendering ([%.17g])
    round-trips doubles exactly — the serve bench gates bitwise
    payload identity across job counts on that property.

    Every request carries its netlist as one JSON string, so the
    decoder is linear and allocates per string, not per byte: a string
    without escapes is one [String.sub]; otherwise a first scan gives
    the exact decoded length and maximal runs of plain bytes are
    blitted into it between escapes. [Num] renders through the C
    primitive behind [Printf]'s [%g], the same bytes as
    [Printf.sprintf "%.17g"] for every finite double. The test suite
    checks both against the byte-at-a-time reference decoder and
    [Printf]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Pre-rendered JSON emitted verbatim by {!to_string} — used to
          embed an {!Obs.export_chrome_since} trace without reparsing
          it. Never produced by {!parse}. *)

exception Parse_error of string
(** Malformed input. The message names the byte offset. *)

val parse : string -> t
(** Parse one JSON value (surrounding whitespace allowed; trailing
    non-whitespace is an error). @raise Parse_error on malformed or
    deeper-than-512 input. *)

val to_string : t -> string
(** Compact one-line rendering (no interior newlines, so a rendered
    value is always a valid protocol line). *)

val to_line : t -> string
(** {!to_string} followed by ['\n'], rendered into one buffer: a
    protocol line ready to write. *)

(** {1 Accessors} *)

val member : string -> t -> t
(** Field of an object; [Null] when absent or not an object. On
    duplicate keys the first wins. *)

val to_bool_opt : t -> bool option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
(** [Num] values that are exact integers only. *)

val to_str_opt : t -> string option
val to_list_opt : t -> t list option
