(** Blocking line-oriented client for the serve protocol.

    Used by the [symor request] subcommand, the serve bench load
    generator and the test harness — all of which talk to a daemon in
    a {e separate process} (the daemon may own spawned domains, so
    tests must not fork it; they spawn the [symor] binary and connect
    here). *)

type t

val connect : ?deadline_s:float -> Protocol.addr -> t
(** Connect, retrying refused/absent sockets until the deadline
    (default 10 s) — the standard way to wait for a daemon that was
    just spawned to come up.
    @raise Circuit.Diagnostic.User_error ["cannot connect to …"] once
    the deadline passes, or on any other connection error. *)

val send_line : t -> string -> unit
(** Write one request line (the terminating newline is added). *)

val recv_line : t -> string option
(** Next response line (without the newline); [None] on EOF. *)

val request : t -> string -> string option
(** [send_line] then [recv_line]. *)

val close : t -> unit
