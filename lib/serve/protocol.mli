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
     "engine": "sympvl", "order": 20, "shift": s0, "band": [lo, hi],
     "freqs": [hz, ...] | "flo"/"fhi"/"points",   // ac, sparams
     "z0": 50.0,                                  // sparams
     "dt": 1e-11, "tstop": 1e-8, "observe": ["n1", ...],  // tran
     "trace": true}                           // per-request span subtree
    v} *)

type addr = [ `Unix of string | `Tcp of string * int ]
(** Where the daemon listens: a Unix socket path, or a TCP host:port. *)

val sockaddr : addr -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr] ([Tcp] hosts accept dotted quads or
    names). @raise Circuit.Diagnostic.User_error on an unknown host. *)

type op = Ping | Reduce | Ac | Sparams | Tran | Certify | Stats | Shutdown

val op_name : op -> string

type request = {
  id : Json.t;  (** Echoed verbatim in the response ([Null] if absent). *)
  op : op;
  netlist : string;  (** Netlist text; [""] for the data-free ops. *)
  engine : Sympvl.Rom.engine;
  order : int;  (** [0] means the op's auto order (certify). *)
  shift : float option;
  band : (float * float) option;
  freqs : float array;  (** Resolved grid, in request order (ac/sparams). *)
  z0 : float;
  dt : float;
  t_stop : float;
  observe : string list;
  trace : bool;
}

val parse : string -> (request, Json.t * Circuit.Diagnostic.t list) result
(** Decode and validate one request line. The error carries the
    request [id] when one could still be extracted ([Null] otherwise)
    so even a rejected request gets an addressable response.

    Error codes: [SRV001] malformed JSON, [SRV002] not an object,
    [SRV003] missing/unknown op, [SRV004] invalid field value,
    [SRV005] missing or empty netlist, [SRV006] unknown engine. *)

(** {1 Responses} *)

val diag_to_json : Circuit.Diagnostic.t -> Json.t
(** {!Circuit.Diagnostic.to_json}, embedded verbatim. *)

val error_response : id:Json.t -> Circuit.Diagnostic.t list -> string
(** [{"id":…,"ok":false,"status":2,"findings":[…]}] — one line, no
    trailing newline. *)

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
