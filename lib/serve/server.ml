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
  mutable batched_points : int;
  mutable lat_count : int;
  mutable lat_total : float;
  mutable lat_max : float;
}

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

(* the same user-level exception surface the CLI's [safely] enumerates,
   rendered as findings instead of stderr lines; anything else is an
   internal error (SRV008) except the truly fatal trio. [mna] names a
   zero pivot's unknown; [op] decides whether a shift can be suggested *)
let user_diag ?mna (op : Protocol.op) = function
  | Circuit.Parser.Parse_error (line, msg) ->
    Some (Diagnostic.error ~line "SRV007" (Printf.sprintf "parse error: %s" msg))
  | Diagnostic.User_error msg -> Some (Diagnostic.error "SRV007" msg)
  | Sys_error msg -> Some (Diagnostic.error "SRV007" msg)
  | Sympvl.Rom.Unsupported why ->
    Some (Diagnostic.error "SRV007" ("engine does not apply to this netlist: " ^ why))
  | Sympvl.Awe.Breakdown msg ->
    Some
      (Diagnostic.error "SRV007"
         ("AWE breakdown: " ^ msg ^ " — lower \"order\" (AWE is limited to ~8)"))
  | Sympvl.Mpvl.Breakdown k ->
    Some
      (Diagnostic.error "SRV007"
         (Printf.sprintf
            "MPVL exact breakdown at step %d — perturb \"shift\" or use engine \
             \"sympvl\""
            k))
  | Sympvl.Factor.Singular i ->
    let at =
      match mna with
      | Some m -> Circuit.Mna.unknown_label m i
      | None -> Printf.sprintf "unknown %d" (i + 1)
    in
    let hint =
      match op with
      | Protocol.Reduce | Protocol.Certify -> " — pass \"shift\" or \"band\""
      | _ -> ""
    in
    Some
      (Diagnostic.error "SRV007"
         (Printf.sprintf "factoring G + sC hit a zero pivot at %s%s" at hint))
  | Simulate.Transient.Convergence_failure t ->
    Some
      (Diagnostic.error "SRV007"
         (Printf.sprintf "transient Newton failed to converge at t = %g s" t))
  | _ -> None

let guard ~id ~op f =
  try f () with
  | (Out_of_memory | Stack_overflow | San.Violation _) as e -> raise e
  | e -> (
    match user_diag op e with
    | Some d -> Protocol.error_response ~id [ d ]
    | None ->
      Protocol.error_response ~id
        [
          Diagnostic.error "SRV008"
            (Printf.sprintf "internal error: %s" (Printexc.to_string e));
        ])

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

(* one non-sweep request -> (fields, findings) *)
let compute st (r : Protocol.request) =
  match r.op with
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
        ("batched_points", jint st.batched_points);
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
  | Protocol.Reduce ->
    with_entry st r.netlist @@ fun entry ->
    let mna = Cache.mna entry in
    let model, cached =
      Cache.model st.cache entry ~engine:r.engine ~order:r.order ~shift:r.shift
        ~band:r.band
    in
    ( [
        ("engine", Json.Str (Sympvl.Rom.name r.engine));
        ("n", jint mna.Circuit.Mna.n);
        ("order", jint (Sympvl.Rom.order model));
        ("ports", jint (Sympvl.Rom.ports model));
        ("shift", Json.Num (Sympvl.Rom.shift model));
        ("cached", Json.Bool cached);
      ],
      None )
  | Protocol.Tran ->
    with_entry st r.netlist @@ fun entry ->
    let nl = Cache.netlist entry in
    let nodes = List.map (Circuit.Netlist.find_node nl) r.observe in
    let opts = Simulate.Transient.default ~dt:r.dt ~t_stop:r.t_stop in
    let res = Simulate.Transient.run ~opts ~observe:nodes nl in
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
  | Protocol.Certify ->
    with_entry st r.netlist @@ fun entry ->
    let mna = Cache.mna entry in
    let order = Sympvl.Certify.request_order r.engine mna r.order in
    let model, cached =
      Cache.model st.cache entry ~engine:r.engine ~order ~shift:r.shift
        ~band:r.band
    in
    let rep =
      Sympvl.Certify.request ~ctx:(Cache.ctx entry) ?shift:r.shift ?band:r.band model mna
    in
    ( [
        ("engine", Json.Str (Sympvl.Rom.name r.engine));
        ("order", jint (Sympvl.Rom.order model));
        ("cached", Json.Bool cached);
        ( "safe_order",
          match rep.Sympvl.Certify.safe_order with
          | Some k -> jint k
          | None -> Json.Null );
      ],
      Some rep.Sympvl.Certify.findings )
  | Protocol.Ac | Protocol.Sparams ->
    (* routed through [handle_group] by the batch processor *)
    assert false

let record_latency st dt =
  st.lat_count <- st.lat_count + 1;
  st.lat_total <- st.lat_total +. dt;
  if dt > st.lat_max then st.lat_max <- dt

let handle_single st (r : Protocol.request) =
  let t0 = Obs.now () in
  let m = Obs.mark () in
  let resp =
    guard ~id:r.Protocol.id ~op:r.Protocol.op @@ fun () ->
    if Obs.tracing () then Obs.span_begin "serve.request";
    let fields, findings =
      Fun.protect
        ~finally:(fun () -> if Obs.tracing () then Obs.span_end ())
        (fun () -> compute st r)
    in
    let trace =
      if r.Protocol.trace then Some (Obs.export_chrome_since m) else None
    in
    Protocol.ok_response ~id:r.Protocol.id ?findings ?trace fields
  in
  record_latency st (Obs.now () -. t0);
  resp

(* one batch group of ac/sparams requests over the same netlist text:
   union the frequency points missing from the entry's point cache,
   run one pooled sweep for the whole group, then answer each request
   from the point table *)
let handle_group st (items : (int * Protocol.request) list) =
  let t0 = Obs.now () in
  let m = Obs.mark () in
  let ids = List.map (fun (i, r) -> (i, r.Protocol.id)) items in
  let _, r0 = List.hd items in
  let group_mna = ref None in
  let result =
    try
      if Obs.tracing () then Obs.span_begin "serve.request";
      let fields_per_item =
        Fun.protect
          ~finally:(fun () -> if Obs.tracing () then Obs.span_end ())
          (fun () ->
          with_entry st r0.Protocol.netlist @@ fun entry ->
          let mna = Cache.mna entry in
          group_mna := Some mna;
          let ws = Cache.ctx entry in
          let hits = ref 0 and fresh_total = ref 0 in
          let seen = Hashtbl.create 64 in
          let union = ref [] in
          List.iter
            (fun (_, r) ->
              Array.iter
                (fun f ->
                  match Cache.cached_point entry f with
                  | Some _ ->
                    incr hits;
                    Obs.count "serve.point_hit" 1
                  | None ->
                    incr fresh_total;
                    Obs.count "serve.point_miss" 1;
                    let k = Printf.sprintf "%h" f in
                    if not (Hashtbl.mem seen k) then begin
                      Hashtbl.add seen k ();
                      union := f :: !union
                    end)
                r.Protocol.freqs)
            items;
          let needed = Array.of_list !union in
          (* canonical ascending order: the sweep's work distribution
             must not depend on request arrival order *)
          Array.sort Float.compare needed;
          if Array.length needed > 0 then begin
            let sw = Simulate.Ac.sweep_ws mna ws needed in
            Array.iteri
              (fun i f -> Cache.store_point entry f sw.Simulate.Ac.z.(i))
              needed
          end;
          Cache.note_point_stats st.cache ~hits:!hits ~misses:!fresh_total;
          let saved = !fresh_total - Array.length needed in
          if saved > 0 then begin
            st.batched_points <- st.batched_points + saved;
            Obs.count "serve.batched_points" saved
          end;
          let port_names = mna.Circuit.Mna.port_names in
          List.map
            (fun (i, r) ->
              let zs =
                Array.map
                  (fun f ->
                    match Cache.cached_point entry f with
                    | Some z -> z
                    | None -> assert false)
                  r.Protocol.freqs
              in
              let key, mats =
                match r.Protocol.op with
                | Protocol.Sparams ->
                  ( "s",
                    Array.map
                      (Simulate.Netparams.z_to_s ~z0:r.Protocol.z0)
                      zs )
                | _ -> ("z", zs)
              in
              ( i,
                r,
                [
                  ("freqs", jfloats r.Protocol.freqs);
                  ("ports", jstrs port_names);
                  (key, Json.List (Array.to_list (Array.map jcmat mats)));
                ] ))
            items)
    in
      let traced = List.exists (fun (_, r) -> r.Protocol.trace) items in
      let trace = if traced then Some (Obs.export_chrome_since m) else None in
      List.map
        (fun (i, (r : Protocol.request), fields) ->
          let trace = if r.Protocol.trace then trace else None in
          (i, Protocol.ok_response ~id:r.Protocol.id ?trace fields))
        fields_per_item
    with
    | (Out_of_memory | Stack_overflow | San.Violation _) as e -> raise e
    | e ->
      let d =
        match user_diag ?mna:!group_mna r0.Protocol.op e with
        | Some d -> d
        | None ->
          Diagnostic.error "SRV008"
            (Printf.sprintf "internal error: %s" (Printexc.to_string e))
      in
      List.map (fun (i, id) -> (i, Protocol.error_response ~id [ d ])) ids
  in
  List.iter (fun _ -> record_latency st (Obs.now () -. t0)) result;
  result

(* ------------------------------------------------------------------ *)
(* Batch processing                                                    *)

let append_response c resp = c.out <- c.out ^ resp ^ "\n"

let is_sweep (r : Protocol.request) =
  match r.Protocol.op with
  | Protocol.Ac | Protocol.Sparams -> true
  | _ -> false

let process_batch st (items : (conn * string) list) =
  let batch_mark = Obs.mark () in
  let arr = Array.of_list items in
  let n = Array.length arr in
  st.requests <- st.requests + n;
  let out = Array.make n "" in
  let parsed = Array.map (fun (_, line) -> Protocol.parse line) arr in
  (* sweep groups by content hash, members in batch order *)
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      match p with
      | Ok r when is_sweep r ->
        let k = Cache.key_of_text r.Protocol.netlist in
        let members =
          match Hashtbl.find_opt groups k with Some l -> l | None -> []
        in
        Hashtbl.replace groups k ((i, r) :: members)
      | _ -> ())
    parsed;
  let done_groups = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      match p with
      | Error (id, ds) -> out.(i) <- Protocol.error_response ~id ds
      | Ok r when is_sweep r ->
        let k = Cache.key_of_text r.Protocol.netlist in
        if not (Hashtbl.mem done_groups k) then begin
          Hashtbl.add done_groups k ();
          let members =
            List.rev (match Hashtbl.find_opt groups k with Some l -> l | None -> [])
          in
          List.iter (fun (j, resp) -> out.(j) <- resp) (handle_group st members)
        end
      | Ok r -> out.(i) <- handle_single st r)
    parsed;
  (* the responses carried any requested trace subtrees out; drop the
     batch's span events so daemon buffers stay bounded (counters and
     gauges survive truncation) *)
  Obs.truncate batch_mark;
  Array.iteri (fun i (c, _) -> append_response c out.(i)) arr

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
    Diagnostic.user_errorf "cannot bind %s: %s"
      (match cfg.addr with
      | `Unix p -> p
      | `Tcp (h, p) -> Printf.sprintf "%s:%d" h p)
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
      batched_points = 0;
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
