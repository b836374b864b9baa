(** The [symor serve] wire protocol: newline-delimited JSON.

    Every line the daemon reads is one request; every request gets
    exactly one response line — malformed bytes included, which is
    what the fuzz harness pins. Errors reuse the shared
    {!Circuit.Diagnostic} findings type under stable [SRV*] codes, and
    every response carries the CLI's 0/1/2 exit-code semantics in a
    ["status"] field ({!Circuit.Diagnostic.exit_code} over the
    response findings).

    Request shape (unknown fields are ignored):

    {v
    {"id": any, "op": "ping|reduce|ac|sparams|tran|certify|stats|shutdown",
     "netlist": "<netlist text>",            // compute ops
     "engine", "order", "shift", "band",     // reduce, certify
     "freqs": [hz, ...] | "flo"/"fhi"/"points",   // ac, sparams
     "z0",                                        // sparams
     "dt", "tstop", "observe": ["n1", ...],       // tran
     "trace": true}                           // per-request span subtree
    v}

    Each compute field defaults to {!Ops.default}. *)

type addr = [ `Unix of string | `Tcp of string * int ]
(** Where the daemon listens: a Unix socket path, or a TCP host:port. *)

val sockaddr : addr -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr] ([Tcp] hosts accept dotted quads or
    names). @raise Circuit.Diagnostic.User_error on an unknown host. *)

val addr_to_string : addr -> string
(** [unix:PATH] or [HOST:PORT], as the daemon and its client name an
    address in messages. *)

type body =
  | Ping
  | Stats
  | Shutdown
  | Run of string * Ops.request
      (** A compute op on a netlist text, decoded and range-checked by
          {!Ops.check}. *)

type request = {
  id : Json.t;  (** Echoed verbatim in the response ([Null] if absent). *)
  body : body;
  trace : bool;
}

val parse : string -> (request, Json.t * Circuit.Diagnostic.t list) result
(** Decode one request line: field types here, defaults and ranges
    from {!Ops}. The error carries the request [id] when one could
    still be extracted ([Null] otherwise) so even a rejected request
    gets an addressable response.

    Error codes: [SRV001] malformed JSON, [SRV002] not an object,
    [SRV003] missing/unknown op, [SRV004] invalid field value (the
    {!Ops.Invalid} text), [SRV005] missing or empty netlist, [SRV006]
    unknown engine. *)

(** {1 Responses} *)

val diag_to_json : Circuit.Diagnostic.t -> Json.t
(** {!Circuit.Diagnostic.to_json}, embedded verbatim. *)

val error_response : id:Json.t -> Circuit.Diagnostic.t list -> string
(** [{"id":…,"ok":false,"status":2,"findings":[…]}] — one line,
    ending in its ['\n']. *)

val ok_response :
  id:Json.t ->
  ?findings:Circuit.Diagnostic.t list ->
  ?trace:string ->
  (string * Json.t) list ->
  string
(** Success line: [ok:true], [status] from the findings (certify
    reports its MOD findings here without failing the request),
    [trace] is a pre-rendered Chrome-trace JSON object embedded
    verbatim under ["trace"]. *)
