(** Bounded content-hash-keyed model cache for the serve daemon.

    One {!entry} per distinct netlist {e text} (keyed by its digest,
    so byte-identical requests hit and a one-character perturbation
    misses), holding the full derivation chain the daemon would
    otherwise recompute per request:

    {v netlist text -> parsed Netlist -> MNA -> Pencil context
                    -> reduced Rom.model per (engine, order, shift, band)
                    -> evaluated Z(jw) per frequency point v}

    The MNA/pencil stage is lazy (a transient-only workload never
    assembles a linear pencil) and memoizes its failure, so a netlist
    that cannot assemble fails fast on every request without being
    rebuilt.

    The point table is the daemon's one reuse layer for [ac] and
    [sparams]: a frequency evaluated once, by any earlier request, is
    a lookup from then on ({!points}).

    Entries are evicted LRU once [max_entries] is exceeded. An entry
    {!pin}ned by an in-flight request is never dropped mid-request:
    eviction marks it doomed and defers the drop to {!unpin} — the
    single-flight discipline of the (serialized) request loop does the
    rest.

    Counters: entry lookups record [serve.cache_hit] /
    [serve.cache_miss] (and the daemon-local {!stats} mirror, which is
    what [/stats] reports); evictions record [serve.cache_evict];
    model builds [serve.model_build]; point-table lookups
    [serve.point_hit] / [serve.point_miss] ({!points}). *)

type t

type entry

type stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  model_builds : int;
  point_hits : int;
  point_misses : int;
}

val create : max_entries:int -> t
(** [max_entries >= 1]. *)

val key_of_text : string -> string
(** Content hash (hex digest) of a netlist text. *)

val find : t -> string -> entry
(** Entry for a netlist text: LRU-touch on hit, parse-and-insert on
    miss (raising {!Circuit.Parser.Parse_error} through without
    inserting), evicting past the bound. *)

(** {1 Entry accessors (build on demand, memoized)} *)

val key : entry -> string

val netlist : entry -> Circuit.Netlist.t

val mna : entry -> Circuit.Mna.t
(** @raise Circuit.Diagnostic.User_error as {!Circuit.Mna.auto} would
    (memoized: repeats re-raise without re-assembling). *)

val ctx : entry -> Sympvl.Pencil.t
(** The shared pencil context (also the AC workspace). *)

val model : t -> entry -> Ops.request -> Sympvl.Rom.model * bool
(** {!Ops.model} of a request on this entry's pencil, memoized per
    entry by engine, resolved order ({!Ops.order}), shift and band
    (bounded; least-recently-built drops first). The flag is [true]
    on a cache hit. *)

val points : t -> entry -> float array -> Linalg.Cmat.t array
(** Exact [Z(j2πf)] for each frequency, in request order. The point
    table answers the frequencies this entry has evaluated before,
    keyed by the exact bit pattern of [f] (no float tolerance); the
    missing ones, deduplicated and ascending, go through one
    {!Simulate.Ac.sweep_ws} on the entry's pencil and are stored
    (the table is bounded: it is cleared when full). Each frequency
    counts one [point_hits] or [point_misses] in {!stats} and one
    [serve.point_hit] or [serve.point_miss].
    @raise Sympvl.Factor.Singular on a zero pivot at a missing point
    (nothing from that sweep is stored). *)

(** {1 Pinning (deferred eviction)} *)

val pin : entry -> unit

val unpin : t -> entry -> unit
(** Drops the entry now if eviction selected it while pinned. *)

(** {1 Introspection} *)

val stats : t -> stats

val mem_key : t -> string -> bool
(** Whether a key is live in the table (doomed-but-pinned entries
    count: their context is still in use). *)
