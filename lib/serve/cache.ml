type entry = {
  mutable ekey : string;
  netlist : Circuit.Netlist.t;
  (* lazy so a transient-only workload on a netlist whose pencil cannot
     assemble never pays (or fails) MNA auto-detection; OCaml's [Lazy]
     memoizes the raised exception, which is exactly the fail-fast we
     want on repeat requests *)
  pencil : (Circuit.Mna.t * Sympvl.Pencil.t) Lazy.t;
  models : (string, Sympvl.Rom.model) Hashtbl.t;
  mutable model_order : string list;  (** oldest last; bounds [models] *)
  points : (string, Linalg.Cmat.t) Hashtbl.t;
  mutable pins : int;
  mutable doomed : bool;
  mutable stamp : int;
}

type t = {
  max_entries : int;
  entries : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable model_builds : int;
  mutable point_hits : int;
  mutable point_misses : int;
}

type stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  model_builds : int;
  point_hits : int;
  point_misses : int;
}

let max_models_per_entry = 8

let max_points_per_entry = 8192

let create ~max_entries =
  if max_entries < 1 then invalid_arg "Cache.create: max_entries must be >= 1";
  {
    max_entries;
    entries = Hashtbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    model_builds = 0;
    point_hits = 0;
    point_misses = 0;
  }

let key_of_text text = Digest.to_hex (Digest.string text)

let touch (t : t) e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

(* strict-LRU victim among live entries *)
let victim (t : t) =
  Hashtbl.fold
    (fun _ e best ->
      if e.doomed then best
      else
        match best with
        | Some b when b.stamp <= e.stamp -> best
        | _ -> Some e)
    t.entries None

let drop (t : t) e =
  Hashtbl.remove t.entries e.ekey;
  t.evictions <- t.evictions + 1;
  Obs.count "serve.cache_evict" 1

let live_count (t : t) =
  Hashtbl.fold (fun _ e n -> if e.doomed then n else n + 1) t.entries 0

let rec evict (t : t) =
  if live_count t > t.max_entries then
    match victim t with
    | None -> ()
    | Some e ->
      (* never drop a context an in-flight request still holds: mark it
         doomed (it stops serving lookups now) and let [unpin] finish
         the eviction when the request completes *)
      if e.pins > 0 then e.doomed <- true else drop t e;
      evict t

let find (t : t) text =
  let k = key_of_text text in
  match Hashtbl.find_opt t.entries k with
  | Some e when not e.doomed ->
    t.hits <- t.hits + 1;
    Obs.count "serve.cache_hit" 1;
    touch t e;
    e
  | _ ->
    (* a doomed survivor no longer serves lookups; rebuild fresh *)
    t.misses <- t.misses + 1;
    Obs.count "serve.cache_miss" 1;
    let nl = Circuit.Parser.parse_string text in
    let e =
      {
        ekey = k;
        netlist = nl;
        pencil =
          lazy
            (let m = Circuit.Mna.auto nl in
             (m, Sympvl.Pencil.create m));
        models = Hashtbl.create 4;
        model_order = [];
        points = Hashtbl.create 64;
        pins = 0;
        doomed = false;
        stamp = 0;
      }
    in
    touch t e;
    (match Hashtbl.find_opt t.entries k with
    | Some old when old.doomed && old.pins > 0 ->
      (* keep the pinned ghost alive under a shadow key until unpin
         (mutated in place: the in-flight holder's [unpin] must see it) *)
      Hashtbl.remove t.entries k;
      old.ekey <- k ^ "#doomed";
      Hashtbl.add t.entries old.ekey old
    | Some _ -> Hashtbl.remove t.entries k
    | None -> ());
    Hashtbl.add t.entries k e;
    evict t;
    e

let key e = e.ekey

let netlist e = e.netlist

let mna e = fst (Lazy.force e.pencil)

let ctx e = snd (Lazy.force e.pencil)

(* a model is named by what it is built from: the engine, the order
   Ops.model resolves, the shift and the band *)
let model_key (r : Ops.request) order =
  Printf.sprintf "%s|%d|%s|%s" (Sympvl.Rom.name r.Ops.engine) order
    (match r.Ops.shift with Some s -> Printf.sprintf "%h" s | None -> "auto")
    (match r.Ops.band with
    | Some (lo, hi) -> Printf.sprintf "%h:%h" lo hi
    | None -> "none")

let model (t : t) e r =
  let m, pencil_ctx = Lazy.force e.pencil in
  let mk = model_key r (Ops.order r m) in
  match Hashtbl.find_opt e.models mk with
  | Some rom -> (rom, true)
  | None ->
    let rom = Ops.model ~ctx:pencil_ctx r m in
    if List.length e.model_order >= max_models_per_entry then begin
      match List.rev e.model_order with
      | oldest :: _ ->
        Hashtbl.remove e.models oldest;
        e.model_order <-
          List.filter (fun k -> not (String.equal k oldest)) e.model_order
      | [] -> ()
    end;
    Hashtbl.replace e.models mk rom;
    e.model_order <- mk :: e.model_order;
    t.model_builds <- t.model_builds + 1;
    Obs.count "serve.model_build" 1;
    (rom, false)

(* exact bit-pattern rendering: float keys without float equality *)
let point_key f = Printf.sprintf "%h" f

let points (t : t) e freqs =
  let keys = Array.map point_key freqs in
  let cached = Array.map (Hashtbl.find_opt e.points) keys in
  let missing = ref [] in
  Array.iteri
    (fun i z ->
      match z with
      | Some _ ->
        t.point_hits <- t.point_hits + 1;
        Obs.count "serve.point_hit" 1
      | None ->
        t.point_misses <- t.point_misses + 1;
        Obs.count "serve.point_miss" 1;
        missing := freqs.(i) :: !missing)
    cached;
  (* ascending and deduplicated: the sweep's work split depends on the
     set of points only, not on the request's order *)
  let needed = Array.of_list (List.sort_uniq Float.compare !missing) in
  let fresh = Hashtbl.create (Array.length needed) in
  if Array.length needed > 0 then begin
    let m, ws = Lazy.force e.pencil in
    let sw = Simulate.Ac.sweep_ws m ws needed in
    Array.iteri
      (fun i f ->
        let k = point_key f and z = sw.Simulate.Ac.z.(i) in
        Hashtbl.replace fresh k z;
        if Hashtbl.length e.points >= max_points_per_entry then Hashtbl.reset e.points;
        Hashtbl.replace e.points k z)
      needed
  end;
  (* answered from the lookups and the sweep, not the table: storing a
     sweep past the table bound resets it *)
  Array.mapi (fun i z -> match z with Some z -> z | None -> Hashtbl.find fresh keys.(i)) cached

let pin e = e.pins <- e.pins + 1

let unpin (t : t) e =
  e.pins <- e.pins - 1;
  if e.pins <= 0 && e.doomed then drop t e

let stats (t : t) : stats =
  {
    entries = Hashtbl.length t.entries;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    model_builds = t.model_builds;
    point_hits = t.point_hits;
    point_misses = t.point_misses;
  }

let mem_key (t : t) k = Hashtbl.mem t.entries k
