type sweep = {
  freqs : float array;
  z : Linalg.Cmat.t array;
  port_names : string array;
}

(* The reusable symbolic phase is the shared pencil context
   (Sympvl.Pencil): the planned backend's ordering and symbolic phase
   over the merged pattern, and per-port sparse patterns of the
   permuted B. Each frequency point is one Pencil.z_at: a split-complex
   numeric factor plus Pencil.transfer. *)
type workspace = Sympvl.Pencil.t

let workspace (m : Circuit.Mna.t) =
  Obs.with_span "ac.symbolic" @@ fun () -> Sympvl.Pencil.create m

(* the pencil context holds the variable and gain, so [m] only names
   the system [ws] must have been built from *)
let z_at_ws (m : Circuit.Mna.t) ws s =
  if not (Sympvl.Pencil.built_from ws m) then
    invalid_arg "Ac.z_at_ws: the workspace was not built from this MNA system";
  (* per-frequency span on the calling domain's track: worker domains
     of the pool each record into their own buffer, merged at the
     join, so tracing cannot perturb the pooled sweep *)
  let traced = Obs.tracing () in
  let t_start = if traced then Obs.now () else 0.0 in
  if traced then
    Obs.span_begin ~args:[ ("im_s", Obs.Float s.Complex.im) ] "ac.point";
  let z = Sympvl.Pencil.z_at ws s in
  if traced then begin
    Obs.count "ac.points" 1;
    Obs.countf "ac.point_seconds" (Obs.now () -. t_start);
    Obs.span_end ()
  end;
  z

let z_at m s = z_at_ws m (workspace m) s

let run_points ?jobs (m : Circuit.Mna.t) ws freqs =
  let point k =
    (* checked-pool mode: tag this slot so overlapping writers across
       concurrently pooled kernels are caught, not just within a batch *)
    if San.race () then San.Race.note_write ~tag:"ac.point" k;
    z_at_ws m ws (Linalg.Cx.im (2.0 *. Float.pi *. freqs.(k)))
  in
  (* every point is independent and written into its own slot, so the
     result is bitwise identical at any job count *)
  match jobs with
  | Some j ->
    if j <= 1 then Array.init (Array.length freqs) point
    else
      Parallel.Pool.parallel_map (Parallel.pool_for ~jobs:j) (Array.length freqs)
        point
  | None -> Parallel.Pool.parallel_map (Parallel.get ()) (Array.length freqs) point

let sweep_ws ?jobs (m : Circuit.Mna.t) ws freqs =
  if Obs.tracing () then
    Obs.span_begin ~args:[ ("points", Obs.Int (Array.length freqs)) ] "ac.sweep";
  let z = run_points ?jobs m ws freqs in
  if Obs.tracing () then Obs.span_end ();
  { freqs; z; port_names = m.Circuit.Mna.port_names }

let sweep ?jobs (m : Circuit.Mna.t) freqs =
  if Obs.tracing () then
    Obs.span_begin ~args:[ ("points", Obs.Int (Array.length freqs)) ] "ac.sweep";
  let ws = workspace m in
  let z = run_points ?jobs m ws freqs in
  if Obs.tracing () then Obs.span_end ();
  { freqs; z; port_names = m.Circuit.Mna.port_names }

let log_freqs ?(points = 200) f_lo f_hi =
  assert (f_lo > 0.0 && f_hi > f_lo && points >= 2);
  let lg_lo = log10 f_lo and lg_hi = log10 f_hi in
  Array.init points (fun i ->
      let t = float_of_int i /. float_of_int (points - 1) in
      10.0 ** (lg_lo +. (t *. (lg_hi -. lg_lo))))

let model_sweep eval freqs =
  Parallel.Pool.parallel_map (Parallel.get ()) (Array.length freqs) (fun k ->
      eval (Linalg.Cx.im (2.0 *. Float.pi *. freqs.(k))))

let max_rel_error sw zs =
  assert (Array.length zs = Array.length sw.z);
  let worst = ref 0.0 in
  Array.iteri
    (fun i ze ->
      let zr = zs.(i) in
      let err = Linalg.Cmat.dist_max ze zr /. Float.max (Linalg.Cmat.max_abs ze) 1e-300 in
      worst := Float.max !worst err)
    sw.z;
  !worst
