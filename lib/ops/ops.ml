type op = Reduce | Certify | Ac | Sparams | Tran

type request = {
  op : op;
  engine : Sympvl.Rom.engine;
  order : int;
  shift : float option;
  band : (float * float) option;
  freqs : float array option;
  flo : float;
  fhi : float;
  points : int;
  z0 : float;
  dt : float;
  t_stop : float;
  observe : string list;
}

let default op =
  {
    op;
    engine = `Sympvl;
    order = (match op with Certify -> 0 | _ -> 20);
    shift = None;
    band = None;
    freqs = None;
    flo = 1e6;
    fhi = 1e10;
    points = 100;
    z0 = 50.0;
    dt = 1e-11;
    t_stop = 1e-8;
    observe = [];
  }

exception Invalid of string * string

let invalidf field fmt = Printf.ksprintf (fun msg -> raise (Invalid (field, msg))) fmt

let engine name =
  match Sympvl.Rom.of_name name with
  | Some e -> e
  | None ->
    invalidf "engine"
      "unknown engine %S (have %s; the AWE and MPVL baselines run in bench tabD/tabG and \
       examples/compare_methods.ml)"
      name
      (String.concat ", " (List.map Sympvl.Rom.name Sympvl.Rom.all))

let max_points = 100_000

let check r =
  (match r.op with
  | Reduce when r.order <= 0 ->
    invalidf "order" "field \"order\" must be positive (got %d)" r.order
  | Certify when r.order < 0 ->
    invalidf "order" "field \"order\" must be >= 0 (got %d)" r.order
  | _ -> ());
  (match r.band with
  | Some (lo, hi) when not (lo > 0.0 && hi > lo) ->
    invalidf "band" "field \"band\" must be [lo, hi] with 0 < lo < hi"
  | _ -> ());
  (match r.freqs with
  | None ->
    if not (r.flo > 0.0 && r.fhi > r.flo) then
      invalidf "freqs" "need 0 < flo < fhi (got flo=%g, fhi=%g)" r.flo r.fhi;
    if r.points < 2 || r.points > max_points then
      invalidf "freqs" "field \"points\" must be in [2, %d] (got %d)" max_points r.points
  | Some fs ->
    if Array.length fs = 0 then invalidf "freqs" "field \"freqs\" must not be empty";
    if Array.length fs > max_points then
      invalidf "freqs" "field \"freqs\" is limited to %d points" max_points;
    if Array.exists (fun f -> not (f > 0.0)) fs then
      invalidf "freqs" "field \"freqs\" entries must be positive numbers");
  if r.z0 <= 0.0 then invalidf "z0" "field \"z0\" must be positive";
  if r.op = Tran then begin
    if not (r.dt > 0.0 && r.t_stop > r.dt) then
      invalidf "dt" "need 0 < dt < tstop (got dt=%g, tstop=%g)" r.dt r.t_stop;
    if r.observe = [] then invalidf "observe" "op \"tran\" needs a non-empty \"observe\" field"
  end;
  r

let freqs r =
  match r.freqs with
  | Some fs -> fs
  | None -> Simulate.Ac.log_freqs ~points:r.points r.flo r.fhi

let order r (mna : Circuit.Mna.t) =
  match (r.op, r.order) with Certify, 0 -> mna.Circuit.Mna.n | _, k -> k

let model ~ctx r mna =
  Sympvl.Rom.reduce ~ctx ?shift:r.shift ?band:r.band ~order:(order r mna) r.engine mna

let certify ~ctx r model mna =
  Sympvl.Certify.run ~ctx ?drift_band:r.band ~shift_requested:(r.shift <> None) model mna

let tran r nl =
  let nodes = List.map (Circuit.Netlist.find_node nl) r.observe in
  let opts = Simulate.Transient.default ~dt:r.dt ~t_stop:r.t_stop in
  Simulate.Transient.run ~opts ~observe:nodes nl

type failure = { line : int option; message : string }

(* the user-level exceptions, one message each; everything else is a
   bug and keeps its backtrace *)
let guard ~spell ?op f =
  let mna = ref None in
  let fail ?line message = Error { line; message } in
  match f (fun m -> mna := Some m) with
  | v -> Ok v
  | exception Circuit.Parser.Parse_error (line, msg) ->
    fail ~line (Printf.sprintf "parse error at line %d: %s" line msg)
  | exception (Invalid (_, msg) | Circuit.Diagnostic.User_error msg | Sys_error msg) ->
    fail msg
  | exception Sympvl.Rom.Unsupported why ->
    fail ("engine does not apply to this netlist: " ^ why)
  | exception Sympvl.Factor.Singular i ->
    (* suggest a shift only to an op that takes one — with the
       automatic eq.-26 shift for this pencil, a value known to
       regularise it *)
    let at =
      match !mna with
      | Some m -> Circuit.Mna.unknown_label m i
      | None -> Printf.sprintf "unknown %d" (i + 1)
    in
    let hint =
      match (!mna, op) with
      | Some m, Some (Reduce | Certify) ->
        Printf.sprintf
          " — retry with %s %g (the automatic shift for this pencil) or %s LO,HI"
          (spell "shift") (Sympvl.Pencil.auto_shift m) (spell "band")
      | _ -> ""
    in
    fail (Printf.sprintf "factoring G + sC hit a zero pivot at %s%s" at hint)
  | exception Simulate.Transient.Convergence_failure t ->
    fail (Printf.sprintf "transient Newton failed to converge at t = %g s" t)
