module Diagnostic = Circuit.Diagnostic

type addr = [ `Unix of string | `Tcp of string * int ]

let sockaddr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
    let ip =
      match Unix.inet_addr_of_string host with
      | ip -> ip
      | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
        | _ | (exception Not_found) ->
          Diagnostic.user_errorf "unknown host %S" host)
    in
    Unix.ADDR_INET (ip, port)

type op = Ping | Reduce | Ac | Sparams | Tran | Certify | Stats | Shutdown

let op_name = function
  | Ping -> "ping"
  | Reduce -> "reduce"
  | Ac -> "ac"
  | Sparams -> "sparams"
  | Tran -> "tran"
  | Certify -> "certify"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let op_of_name = function
  | "ping" -> Some Ping
  | "reduce" -> Some Reduce
  | "ac" -> Some Ac
  | "sparams" -> Some Sparams
  | "tran" -> Some Tran
  | "certify" -> Some Certify
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  id : Json.t;
  op : op;
  netlist : string;
  engine : Sympvl.Rom.engine;
  order : int;
  shift : float option;
  band : (float * float) option;
  freqs : float array;
  z0 : float;
  dt : float;
  t_stop : float;
  observe : string list;
  trace : bool;
}

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

exception Invalid of Diagnostic.t

let invalidf code fmt =
  Printf.ksprintf (fun msg -> raise (Invalid (Diagnostic.error code msg))) fmt

let float_field j name default =
  match Json.member name j with
  | Json.Null -> default
  | v -> (
    match Json.to_float_opt v with
    | Some x -> x
    | None -> invalidf "SRV004" "field %S must be a number" name)

let int_field j name default =
  match Json.member name j with
  | Json.Null -> default
  | v -> (
    match Json.to_int_opt v with
    | Some x -> x
    | None -> invalidf "SRV004" "field %S must be an integer" name)

let bool_field j name default =
  match Json.member name j with
  | Json.Null -> default
  | v -> (
    match Json.to_bool_opt v with
    | Some x -> x
    | None -> invalidf "SRV004" "field %S must be a boolean" name)

let str_field j name default =
  match Json.member name j with
  | Json.Null -> default
  | v -> (
    match Json.to_str_opt v with
    | Some x -> x
    | None -> invalidf "SRV004" "field %S must be a string" name)

let needs_netlist = function
  | Reduce | Ac | Sparams | Tran | Certify -> true
  | Ping | Stats | Shutdown -> false

let parse_band j =
  match Json.member "band" j with
  | Json.Null -> None
  | v -> (
    match Option.map (List.map Json.to_float_opt) (Json.to_list_opt v) with
    | Some [ Some lo; Some hi ] when lo > 0.0 && hi > lo -> Some (lo, hi)
    | _ -> invalidf "SRV004" "field \"band\" must be [lo, hi] with 0 < lo < hi")

let parse_freqs op j =
  match Json.member "freqs" j with
  | Json.Null ->
    let flo = float_field j "flo" 1e6 in
    let fhi = float_field j "fhi" 1e10 in
    let points = int_field j "points" 100 in
    if not (flo > 0.0 && fhi > flo) then
      invalidf "SRV004" "need 0 < flo < fhi (got flo=%g, fhi=%g)" flo fhi;
    if points < 2 || points > 100_000 then
      invalidf "SRV004" "field \"points\" must be in [2, 100000] (got %d)" points;
    if op = Ac || op = Sparams then Simulate.Ac.log_freqs ~points flo fhi else [||]
  | v -> (
    match Json.to_list_opt v with
    | None -> invalidf "SRV004" "field \"freqs\" must be an array of frequencies"
    | Some items ->
      if items = [] then invalidf "SRV004" "field \"freqs\" must not be empty";
      if List.length items > 100_000 then
        invalidf "SRV004" "field \"freqs\" is limited to 100000 points";
      let arr =
        List.map
          (fun it ->
            match Json.to_float_opt it with
            | Some f when f > 0.0 -> f
            | _ -> invalidf "SRV004" "field \"freqs\" entries must be positive numbers")
          items
      in
      Array.of_list arr)

let parse_observe j =
  match Json.member "observe" j with
  | Json.Null -> []
  | v -> (
    match Json.to_list_opt v with
    | None -> invalidf "SRV004" "field \"observe\" must be an array of node names"
    | Some items ->
      List.map
        (fun it ->
          match Json.to_str_opt it with
          | Some s -> s
          | None -> invalidf "SRV004" "field \"observe\" entries must be strings")
        items)

let parse line =
  match Json.parse line with
  | exception Json.Parse_error msg ->
    Error
      (Json.Null, [ Diagnostic.error "SRV001" (Printf.sprintf "malformed JSON: %s" msg) ])
  | Json.Obj _ as j -> (
    let id = Json.member "id" j in
    try
      let op =
        match Json.member "op" j with
        | Json.Null -> invalidf "SRV003" "missing \"op\" field"
        | v -> (
          match Json.to_str_opt v with
          | None -> invalidf "SRV003" "field \"op\" must be a string"
          | Some name -> (
            match op_of_name name with
            | Some op -> op
            | None ->
              invalidf "SRV003"
                "unknown op %S (have ping, reduce, ac, sparams, tran, certify, \
                 stats, shutdown)"
                name))
      in
      let netlist = str_field j "netlist" "" in
      if needs_netlist op && String.trim netlist = "" then
        invalidf "SRV005" "op %S needs a non-empty \"netlist\" field" (op_name op);
      let engine =
        match str_field j "engine" "sympvl" with
        | name -> (
          match Sympvl.Rom.of_name name with
          | Some e -> e
          | None -> invalidf "SRV006" "unknown engine %S (try sympvl)" name)
      in
      let order = int_field j "order" (match op with Certify -> 0 | _ -> 20) in
      (match op with
      | Reduce when order <= 0 ->
        invalidf "SRV004" "field \"order\" must be positive (got %d)" order
      | Certify when order < 0 ->
        invalidf "SRV004" "field \"order\" must be >= 0 (got %d)" order
      | _ -> ());
      let shift =
        match Json.member "shift" j with
        | Json.Null -> None
        | v -> (
          match Json.to_float_opt v with
          | Some s -> Some s
          | None -> invalidf "SRV004" "field \"shift\" must be a number")
      in
      let band = parse_band j in
      let freqs = parse_freqs op j in
      let z0 = float_field j "z0" 50.0 in
      if z0 <= 0.0 then invalidf "SRV004" "field \"z0\" must be positive";
      let dt = float_field j "dt" 1e-11 in
      let t_stop = float_field j "tstop" 1e-8 in
      if op = Tran && not (dt > 0.0 && t_stop > dt) then
        invalidf "SRV004" "need 0 < dt < tstop (got dt=%g, tstop=%g)" dt t_stop;
      let observe = parse_observe j in
      if op = Tran && observe = [] then
        invalidf "SRV004" "op \"tran\" needs a non-empty \"observe\" field";
      let trace = bool_field j "trace" false in
      Ok
        {
          id;
          op;
          netlist;
          engine;
          order;
          shift;
          band;
          freqs;
          z0;
          dt;
          t_stop;
          observe;
          trace;
        }
    with Invalid d -> Error (id, [ d ]))
  | _ -> Error (Json.Null, [ Diagnostic.error "SRV002" "request must be a JSON object" ])

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

(* the one JSON rendering of a finding, shared with `symor lint --json` *)
let diag_to_json d = Json.Raw (Diagnostic.to_json d)

let status_of findings = Diagnostic.exit_code ~strict:false findings

let response ~id ~ok ?(findings = []) ?trace fields =
  let base =
    [ ("id", id); ("ok", Json.Bool ok); ("status", Json.Num (float_of_int (status_of findings))) ]
  in
  let findings_f =
    match findings with
    | [] -> []
    | fs -> [ ("findings", Json.List (List.map diag_to_json fs)) ]
  in
  let trace_f = match trace with None -> [] | Some t -> [ ("trace", Json.Raw t) ] in
  Json.to_string (Json.Obj (base @ fields @ findings_f @ trace_f))

let error_response ~id findings = response ~id ~ok:false ~findings []

let ok_response ~id ?findings ?trace fields = response ~id ~ok:true ?findings ?trace fields
