(** The [symor serve] daemon: a persistent reduction/evaluation
    service over newline-delimited JSON ({!Protocol}).

    One single-threaded select(2) event loop owns every connection —
    request handling is serialized, which is what makes the
    {!Cache} single-flight (two clients racing on the same uncached
    netlist cost exactly one [serve.cache_miss]) and keeps the daemon
    free of connection-level locking. Compute parallelism comes from
    the shared {!Parallel} pool {e inside} a request, exactly as in
    the one-shot CLI, so pooled results keep their bitwise-identical
    guarantee.

    Requests: all complete request lines readable in one loop tick
    are answered in order, each on its own through one handler, so a
    response depends only on its request. Reuse across requests is
    the {!Cache}: a repeated netlist hits its entry, and a repeated
    [ac]/[sparams] frequency is a point-table lookup ({!Cache.points})
    — also when its twin arrived in the same tick.

    Shutdown: SIGTERM/SIGINT (or a [shutdown] request) stop the
    accept loop, drain buffered in-flight requests, flush every
    pending response, then close and (for Unix sockets) unlink.

    Malformed or failing requests get one structured error response
    each ({!Protocol.parse} codes, [SRV007] user-level compute
    failures, [SRV008] internal errors) and never kill the daemon;
    {!San.Violation}, OOM and stack overflow do propagate — a
    sanitizer hit is a library bug, not a client error. *)

type config = {
  addr : Protocol.addr;
  max_entries : int;  (** Cache bound (entries, not bytes). *)
  max_line : int;  (** Per-connection request line bound, bytes. *)
}

val default_config : Protocol.addr -> config
(** 64 cache entries, 8 MiB request lines. *)

val request_stop : unit -> unit
(** What the signal handlers call: ask the running loop to drain and
    return. Safe from a signal handler (one atomic store). *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Bind, listen, serve until stopped; returns after the drain.
    [on_ready] fires once the socket is listening (the CLI prints the
    address; tests connect). Raises {!Circuit.Diagnostic.User_error}
    on bind/resolve failures. *)
