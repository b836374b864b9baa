module Diagnostic = Circuit.Diagnostic

type config = {
  addr : Protocol.addr;
  max_entries : int;
  max_line : int;
}

let default_config addr = { addr; max_entries = 64; max_line = 8 * 1024 * 1024 }

(* the only cross-signal state: handlers store, the loop loads *)
let stop_flag = Atomic.make false

let request_stop () = Atomic.set stop_flag true

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;  (** rendered responses not yet written *)
  mutable alive : bool;
}

type state = {
  cfg : config;
  lfd : Unix.file_descr;
  cache : Cache.t;
  mutable conns : conn list;  (** accept order — the batch order *)
  mutable requests : int;
  mutable lat_count : int;
  mutable lat_total : float;
  mutable lat_max : float;
}

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

(* one request through the Ops failure table: a user error is SRV007;
   anything else except the truly fatal trio is an internal error
   (SRV008) *)
let guard ?op f =
  match Ops.guard ~spell:(Printf.sprintf "%S") ?op f with
  | r -> Result.map_error (fun { Ops.line; message } -> Diagnostic.error ?line "SRV007" message) r
  | exception ((Out_of_memory | Stack_overflow | San.Violation _) as e) -> raise e
  | exception e ->
    Error
      (Diagnostic.error "SRV008" (Printf.sprintf "internal error: %s" (Printexc.to_string e)))

let jint k = Json.Num (float_of_int k)

let jfloats a = Json.List (Array.to_list (Array.map (fun v -> Json.Num v) a))

let jstrs a = Json.List (Array.to_list (Array.map (fun s -> Json.Str s) a))

(* [p×p] complex matrix as rows of [re, im] pairs *)
let jcmat (z : Linalg.Cmat.t) =
  Json.List
    (List.init z.Linalg.Cmat.rows (fun r ->
         Json.List
           (List.init z.Linalg.Cmat.cols (fun c ->
                let v = Linalg.Cmat.get z r c in
                Json.List [ Json.Num v.Complex.re; Json.Num v.Complex.im ]))))

let with_entry st text f =
  let entry = Cache.find st.cache text in
  Cache.pin entry;
  Fun.protect ~finally:(fun () -> Cache.unpin st.cache entry) (fun () -> f entry)

(* one request -> (fields, findings); [seen] takes the pencil a zero
   pivot is named against *)
let compute st seen = function
  | Protocol.Ping -> ([ ("pong", Json.Bool true) ], None)
  | Protocol.Shutdown ->
    request_stop ();
    ([ ("stopping", Json.Bool true) ], None)
  | Protocol.Stats ->
    let cs = Cache.stats st.cache in
    ( [
        ("requests", jint st.requests);
        ( "cache",
          Json.Obj
            [
              ("entries", jint cs.Cache.entries);
              ("hits", jint cs.Cache.hits);
              ("misses", jint cs.Cache.misses);
              ("evictions", jint cs.Cache.evictions);
              ("model_builds", jint cs.Cache.model_builds);
              ("point_hits", jint cs.Cache.point_hits);
              ("point_misses", jint cs.Cache.point_misses);
            ] );
        ("obs_events", jint (Obs.buffered_events ()));
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (Obs.counters ())) );
        ( "latency",
          Json.Obj
            [
              ("count", jint st.lat_count);
              ("total_s", Json.Num st.lat_total);
              ("max_s", Json.Num st.lat_max);
            ] );
      ],
      None )
  | Protocol.Run (text, r) -> (
    with_entry st text @@ fun entry ->
    match r.Ops.op with
    | Ops.Reduce ->
      let mna = Cache.mna entry in
      seen mna;
      let model, cached = Cache.model st.cache entry r in
      ( [
          ("engine", Json.Str (Sympvl.Rom.name r.Ops.engine));
          ("n", jint mna.Circuit.Mna.n);
          ("order", jint (Sympvl.Rom.order model));
          ("ports", jint (Sympvl.Rom.ports model));
          ("shift", Json.Num (Sympvl.Rom.shift model));
          ("cached", Json.Bool cached);
        ],
        None )
    | Ops.Tran ->
      let res = Ops.tran r (Cache.netlist entry) in
      ( [
          ("times", jfloats res.Simulate.Transient.times);
          ( "voltages",
            Json.Obj
              (List.map
                 (fun (name, w) -> (name, jfloats w))
                 res.Simulate.Transient.voltages) );
          ("steps", jint res.Simulate.Transient.steps);
        ],
        None )
    | Ops.Certify ->
      let mna = Cache.mna entry in
      seen mna;
      let model, cached = Cache.model st.cache entry r in
      let rep = Ops.certify ~ctx:(Cache.ctx entry) r model mna in
      ( [
          ("engine", Json.Str (Sympvl.Rom.name r.Ops.engine));
          ("order", jint (Sympvl.Rom.order model));
          ("cached", Json.Bool cached);
          ( "safe_order",
            match rep.Sympvl.Certify.safe_order with
            | Some k -> jint k
            | None -> Json.Null );
        ],
        Some rep.Sympvl.Certify.findings )
    | Ops.Ac | Ops.Sparams ->
      let mna = Cache.mna entry in
      seen mna;
      let freqs = Ops.freqs r in
      let zs = Cache.points st.cache entry freqs in
      let key, mats =
        match r.Ops.op with
        | Ops.Sparams -> ("s", Array.map (Simulate.Netparams.z_to_s ~z0:r.Ops.z0) zs)
        | _ -> ("z", zs)
      in
      ( [
          ("freqs", jfloats freqs);
          ("ports", jstrs mna.Circuit.Mna.port_names);
          (key, Json.List (Array.to_list (Array.map jcmat mats)));
        ],
        None ))

let record_latency st dt =
  st.lat_count <- st.lat_count + 1;
  st.lat_total <- st.lat_total +. dt;
  if dt > st.lat_max then st.lat_max <- dt

let handle st (r : Protocol.request) =
  let t0 = Obs.now () in
  let m = Obs.mark () in
  let op = match r.Protocol.body with Protocol.Run (_, q) -> Some q.Ops.op | _ -> None in
  let resp =
    match
      guard ?op @@ fun seen ->
      if Obs.tracing () then Obs.span_begin "serve.request";
      let fields, findings =
        Fun.protect
          ~finally:(fun () -> if Obs.tracing () then Obs.span_end ())
          (fun () -> compute st seen r.Protocol.body)
      in
      let trace =
        if r.Protocol.trace then Some (Obs.export_chrome_since m) else None
      in
      Protocol.ok_response ~id:r.Protocol.id ?findings ?trace fields
    with
    | Ok resp -> resp
    | Error d -> Protocol.error_response ~id:r.Protocol.id [ d ]
  in
  record_latency st (Obs.now () -. t0);
  resp

(* ------------------------------------------------------------------ *)
(* Batch processing                                                    *)

let append_response c resp = c.out <- c.out ^ resp ^ "\n"

(* every complete line of one tick, answered in batch order; each
   request is answered on its own, so a response depends only on its
   request (same-netlist reuse comes from the cache's point table) *)
let process_batch st (items : (conn * string) list) =
  let batch_mark = Obs.mark () in
  st.requests <- st.requests + List.length items;
  List.iter
    (fun (c, line) ->
      append_response c
        (match Protocol.parse line with
        | Ok r -> handle st r
        | Error (id, ds) -> Protocol.error_response ~id ds))
    items;
  (* the responses carried any requested trace subtrees out; drop the
     batch's span events so daemon buffers stay bounded (counters and
     gauges survive truncation) *)
  Obs.truncate batch_mark

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)

let read_conn st c =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.alive <- false
    | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      if
        Buffer.length c.inbuf > st.cfg.max_line
        && not (String.contains (Buffer.contents c.inbuf) '\n')
      then begin
        append_response c
          (Protocol.error_response ~id:Json.Null
             [ Diagnostic.error "SRV001" "request line too long" ]);
        Buffer.clear c.inbuf;
        c.alive <- false
      end
      else go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
      c.out <- "";
      c.alive <- false
  in
  go ()

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* complete lines buffered across all connections, in accept order;
   every line — empty included — is one request owed one response *)
let gather st =
  let items = ref [] in
  List.iter
    (fun c ->
      let s = Buffer.contents c.inbuf in
      match String.rindex_opt s '\n' with
      | None -> ()
      | Some last ->
        Buffer.clear c.inbuf;
        Buffer.add_substring c.inbuf s (last + 1) (String.length s - last - 1);
        List.iter
          (fun line -> items := (c, strip_cr line) :: !items)
          (String.split_on_char '\n' (String.sub s 0 last)))
    st.conns;
  List.rev !items

let flush_conn c =
  if c.out <> "" then
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | n -> c.out <- String.sub c.out n (String.length c.out - n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
      c.out <- "";
      c.alive <- false

let close_quiet fd = match Unix.close fd with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

let reap st =
  let dead, live =
    List.partition (fun c -> (not c.alive) && c.out = "") st.conns
  in
  List.iter (fun c -> close_quiet c.fd) dead;
  st.conns <- live

let rec accept_all st =
  match Unix.accept st.lfd with
  | fd, _ ->
    Unix.set_nonblock fd;
    st.conns <-
      st.conns
      @ [ { fd; inbuf = Buffer.create 256; out = ""; alive = true } ];
    accept_all st
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> accept_all st

let select_quiet rds wrs timeout =
  match Unix.select rds wrs [] timeout with
  | r -> r
  | exception Unix.Unix_error (EINTR, _, _) -> ([], [], [])

let tick st =
  let rds = st.lfd :: List.map (fun c -> c.fd) st.conns in
  let wrs = List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) st.conns in
  let rd, _, _ = select_quiet rds wrs 0.2 in
  if List.memq st.lfd rd then accept_all st;
  List.iter (fun c -> if List.memq c.fd rd then read_conn st c) st.conns;
  let batch = gather st in
  if batch <> [] then process_batch st batch;
  List.iter flush_conn st.conns;
  reap st

(* stop requested: no new accepts; keep reading, answering and
   flushing until one fully idle pass (or the drain deadline) *)
let drain st =
  let deadline = Obs.now () +. 5.0 in
  let rec go () =
    if Obs.now () < deadline then begin
      let rds = List.filter_map (fun c -> if c.alive then Some c.fd else None) st.conns in
      let rd, _, _ = select_quiet rds [] 0.05 in
      List.iter (fun c -> if List.memq c.fd rd then read_conn st c) st.conns;
      let batch = gather st in
      if batch <> [] then process_batch st batch;
      List.iter flush_conn st.conns;
      reap st;
      if rd <> [] || batch <> [] || List.exists (fun c -> c.out <> "") st.conns
      then go ()
    end
  in
  go ()

let setup_listener cfg =
  let sa = Protocol.sockaddr cfg.addr in
  (match cfg.addr with
  | `Unix path -> (
    match Unix.unlink path with
    | () -> ()
    | exception Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (match cfg.addr with
  | `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | `Unix _ -> ());
  (match Unix.bind fd sa with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
    close_quiet fd;
    Diagnostic.user_errorf "cannot bind %s: %s" (Protocol.addr_to_string cfg.addr)
      (Unix.error_message err));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let run ?(on_ready = fun () -> ()) cfg =
  Obs.enable ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop ()));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop ()));
  Atomic.set stop_flag false;
  let st =
    {
      cfg;
      lfd = setup_listener cfg;
      cache = Cache.create ~max_entries:cfg.max_entries;
      conns = [];
      requests = 0;
      lat_count = 0;
      lat_total = 0.0;
      lat_max = 0.0;
    }
  in
  on_ready ();
  while not (Atomic.get stop_flag) do
    tick st
  done;
  close_quiet st.lfd;
  drain st;
  List.iter (fun c -> close_quiet c.fd) st.conns;
  st.conns <- [];
  match cfg.addr with
  | `Unix path -> (
    match Unix.unlink path with
    | () -> ()
    | exception Unix.Unix_error _ -> ())
  | `Tcp _ -> ()
