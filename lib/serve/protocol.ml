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

let addr_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type body = Ping | Stats | Shutdown | Run of string * Ops.request

type request = { id : Json.t; body : body; trace : bool }

(* ------------------------------------------------------------------ *)
(* Decoding: the field types live here, their ranges in Ops.check      *)

exception Invalid of Diagnostic.t

let invalidf code fmt =
  Printf.ksprintf (fun msg -> raise (Invalid (Diagnostic.error code msg))) fmt

let field conv what j name default =
  match Json.member name j with
  | Json.Null -> default
  | v -> (
    match conv v with
    | Some x -> x
    | None -> invalidf "SRV004" "field %S must be %s" name what)

let float_field = field Json.to_float_opt "a number"

let int_field = field Json.to_int_opt "an integer"

let bool_field = field Json.to_bool_opt "a boolean"

let str_field = field Json.to_str_opt "a string"

(* an optional array field: [not_list] when it is no array, [bad_item]
   when an entry does not convert *)
let list_field conv ~not_list ~bad_item j name =
  match Json.member name j with
  | Json.Null -> None
  | v -> (
    match Option.map (List.map conv) (Json.to_list_opt v) with
    | None -> invalidf "SRV004" "%s" not_list
    | Some items when List.for_all Option.is_some items -> Some (List.map Option.get items)
    | Some _ -> invalidf "SRV004" "%s" bad_item)

(* [String.trim]'s blanks, tested in place: trimming a netlist that ends
   in a newline would copy all of it *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let ops =
  [
    ("ping", `Control Ping);
    ("reduce", `Run Ops.Reduce);
    ("ac", `Run Ops.Ac);
    ("sparams", `Run Ops.Sparams);
    ("tran", `Run Ops.Tran);
    ("certify", `Run Ops.Certify);
    ("stats", `Control Stats);
    ("shutdown", `Control Shutdown);
  ]

(* one compute request: its fields over the op's Ops defaults, then the
   Ops range checks *)
let decode op j =
  let d = Ops.default op in
  let engine = Ops.engine (str_field j "engine" (Sympvl.Rom.name d.Ops.engine)) in
  let order = int_field j "order" d.Ops.order in
  let shift =
    match Json.member "shift" j with Json.Null -> None | _ -> Some (float_field j "shift" 0.0)
  in
  let band =
    let msg = "field \"band\" must be [lo, hi] with 0 < lo < hi" in
    match list_field Json.to_float_opt ~not_list:msg ~bad_item:msg j "band" with
    | None -> None
    | Some [ lo; hi ] -> Some (lo, hi)
    | Some _ -> invalidf "SRV004" "%s" msg
  in
  let freqs =
    Option.map Array.of_list
      (list_field Json.to_float_opt j "freqs"
         ~not_list:"field \"freqs\" must be an array of frequencies"
         ~bad_item:"field \"freqs\" entries must be positive numbers")
  in
  (* the log grid is read only when no explicit grid is given *)
  let log_grid = Option.is_none freqs in
  let flo = if log_grid then float_field j "flo" d.Ops.flo else d.Ops.flo in
  let fhi = if log_grid then float_field j "fhi" d.Ops.fhi else d.Ops.fhi in
  let points = if log_grid then int_field j "points" d.Ops.points else d.Ops.points in
  let observe =
    Option.value ~default:d.Ops.observe
      (list_field Json.to_str_opt j "observe"
         ~not_list:"field \"observe\" must be an array of node names"
         ~bad_item:"field \"observe\" entries must be strings")
  in
  let z0 = float_field j "z0" d.Ops.z0 in
  let dt = float_field j "dt" d.Ops.dt in
  let t_stop = float_field j "tstop" d.Ops.t_stop in
  Ops.check
    { d with Ops.engine; order; shift; band; freqs; flo; fhi; points; z0; dt; t_stop; observe }

let parse line =
  match Json.parse line with
  | exception Json.Parse_error msg ->
    Error
      (Json.Null, [ Diagnostic.error "SRV001" (Printf.sprintf "malformed JSON: %s" msg) ])
  | Json.Obj _ as j -> (
    let id = Json.member "id" j in
    try
      let name =
        match Json.member "op" j with
        | Json.Null -> invalidf "SRV003" "missing \"op\" field"
        | v -> (
          match Json.to_str_opt v with
          | None -> invalidf "SRV003" "field \"op\" must be a string"
          | Some name -> name)
      in
      let body =
        match List.assoc_opt name ops with
        | None ->
          invalidf "SRV003" "unknown op %S (have %s)" name
            (String.concat ", " (List.map fst ops))
        | Some (`Run op) ->
          let netlist = str_field j "netlist" "" in
          if String.for_all is_blank netlist then
            invalidf "SRV005" "op %S needs a non-empty \"netlist\" field" name;
          Run (netlist, decode op j)
        | Some (`Control body) -> body
      in
      Ok { id; body; trace = bool_field j "trace" false }
    with
    | Invalid d -> Error (id, [ d ])
    | Ops.Invalid (field, msg) ->
      Error (id, [ Diagnostic.error (if field = "engine" then "SRV006" else "SRV004") msg ]))
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
  Json.to_line (Json.Obj (base @ fields @ findings_f @ trace_f))

let error_response ~id findings = response ~id ~ok:false ~findings []

let ok_response ~id ?findings ?trace fields = response ~id ~ok:true ?findings ?trace fields
