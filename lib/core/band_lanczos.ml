type result = {
  basis : Linalg.Vec.t array;
  t_mat : Linalg.Mat.t;
  delta : Linalg.Mat.t;
  rho : Linalg.Mat.t;
  p1 : int;
  order : int;
  deflations : int list;
  n_clusters : int;
  look_ahead_steps : int;
  exhausted : bool;
}

type cluster = {
  mutable members : int list; (* paper indices (1-based), ascending *)
  mutable closed : (int array * Ortho.block) option;
      (* once Δ^(γ) is nonsingular: the members and the block that
         J-projects onto them through the LU of Δ^(γ) *)
}

type candidate = { vec : Linalg.Vec.t; norm0 : float }

let log_src = Logs.Src.create "sympvl.lanczos" ~doc:"band Lanczos process"

module Log = (val Logs.src_log log_src : Logs.LOG)

let run ?(dtol = 1e-8) ?(ctol = 1e-10) ?(full_ortho = true) ~n_max ~op ~j ~start () =
  let nn = start.Linalg.Mat.rows in
  let p = start.Linalg.Mat.cols in
  assert (p >= 1 && n_max >= 1 && Array.length j = nn);
  let run_open = Obs.tracing () in
  if run_open then
    Obs.span_begin
      ~args:[ ("N", Obs.Int nn); ("p", Obs.Int p); ("n_max", Obs.Int n_max) ]
      "lanczos.run";
  (* per-step span bookkeeping: the step span must close even when the
     process bails out of the middle of a step (Krylov exhaustion) *)
  let step_open = ref false in
  let j_dot x y = Linalg.Vec.dot3 x j y in
  (* storage; paper index n is 1-based: vs.(n-1) = v_n. The Krylov
     space cannot exceed N, so a huge requested order allocates for N *)
  let cap = min n_max nn in
  let vs = Array.make cap [||] in
  let nv = ref 0 in
  let tm = Linalg.Mat.create cap cap in
  let rho = Linalg.Mat.create cap p in
  (* paper column c: c ≥ 1 goes to T, c ≤ 0 to ρ (column c + p − 1,
     0-based); rows are 1-based paper indices *)
  let add_t row col v =
    if col >= 1 then Linalg.Mat.add_to tm (row - 1) (col - 1) v
    else Linalg.Mat.add_to rho (row - 1) (col + p - 1) v
  in
  (* candidate queue: head is v̂_{n}; uses a list ref (short) *)
  let cands =
    ref
      (List.init p (fun i ->
           let col = Linalg.Mat.col start i in
           { vec = col; norm0 = Float.max (Linalg.Vec.norm2 col) 1e-300 }))
  in
  let pc () = List.length !cands in
  (* clusters, 1-based: clusters.(g-1) *)
  let clusters = ref [||] in
  let n_gamma = ref 0 in
  let new_cluster () =
    incr n_gamma;
    let c = { members = []; closed = None } in
    clusters := Array.append !clusters [| c |]
  in
  new_cluster ();
  let cluster g = !clusters.(g - 1) in
  let gamma_of = Array.make (cap + 1) 0 in
  let gamma_v = ref 1 in
  let iv = ref [] in
  let deflations = ref [] in
  let look_ahead_steps = ref 0 in
  let exhausted = ref false in
  let p1 = ref 0 in
  (* J-orthogonalise [v] against the closed ones among clusters [gs],
     in order, recording the coefficients in column [col] (paper
     indexing); an open cluster (look-ahead) is skipped *)
  let ortho_against_clusters v gs col =
    let closed = Array.of_list (List.filter_map (fun g -> (cluster g).closed) gs) in
    Ortho.sweep ~weight:j
      ~record:(fun k coeff ->
        Array.iteri (fun i m -> add_t m col coeff.(i)) (fst closed.(k)))
      (Array.map snd closed) v
  in
  (* the block size collapsed, or the order reached N: end the run *)
  let exhaust step =
    exhausted := true;
    if Obs.tracing () then Obs.instant ~args:[ ("step", Obs.Int step) ] "lanczos.exhausted";
    raise Exit
  in
  let n = ref 0 in
  (try
     while !nv < n_max do
       incr n;
       let n_cur = !n in
       if Obs.tracing () then begin
         Obs.span_begin ~args:[ ("step", Obs.Int n_cur) ] "lanczos.step";
         step_open := true
       end;
       (* ---- step 1: deflate-or-accept loop ---- *)
       let accepted = ref None in
       while !accepted = None do
         match !cands with
         | [] -> exhaust n_cur
         | head :: rest ->
           let phi = n_cur - pc () in
           (* 1b: orthogonalise against the current (open) cluster in
              the Euclidean inner product *)
           let ids = Array.of_list (cluster !n_gamma).members in
           Ortho.sweep
             ~record:(fun k tau -> add_t ids.(k) phi tau.(0))
             (Array.map (fun i -> Ortho.singleton vs.(i - 1)) ids)
             head.vec;
           let nrm = Linalg.Vec.norm2 head.vec in
           (* N vectors span the whole space: a candidate that still
              survives (the windowed process, once J-orthogonality is
              lost, need not deflate) ends the run *)
           if nrm > dtol *. head.norm0 && n_cur > cap then exhaust n_cur;
           if nrm > dtol *. head.norm0 then begin
             (* 1h: accept and normalise *)
             if Obs.tracing () && nrm <= 10.0 *. dtol *. head.norm0 then begin
               (* breakdown near-miss: accepted within one decade of the
                  deflation threshold *)
               Obs.count "lanczos.near_deflations" 1;
               Obs.instant
                 ~args:
                   [
                     ("step", Obs.Int n_cur);
                     ("margin", Obs.Float (nrm /. Float.max (dtol *. head.norm0) 1e-300));
                   ]
                 "lanczos.near_deflation"
             end;
             add_t n_cur phi nrm;
             Linalg.Vec.scale_ip (1.0 /. nrm) head.vec;
             vs.(n_cur - 1) <- head.vec;
             incr nv;
             cands := rest;
             if phi <= 0 then incr p1;
             accepted := Some phi
           end
           else begin
             (* deflate *)
             deflations := n_cur :: !deflations;
             if Obs.tracing () then begin
               Obs.count "lanczos.deflations" 1;
               Obs.instant
                 ~args:
                   [
                     ("step", Obs.Int n_cur);
                     ("margin", Obs.Float (nrm /. Float.max (dtol *. head.norm0) 1e-300));
                   ]
                 "lanczos.deflation"
             end;
             if pc () = 1 then exhaust n_cur;
             if phi > 0 && nrm > 0.0 then begin
               let g = gamma_of.(phi) in
               if not (List.mem g !iv) then iv := g :: !iv
             end;
             cands := rest
           end
       done;
       (* 1i: cluster membership; note n − p_c is exactly the accepted
          candidate's column φ *)
       let phi_accepted = match !accepted with Some phi -> phi | None -> assert false in
       let cg = cluster !n_gamma in
       gamma_of.(n_cur) <- !n_gamma;
       cg.members <- cg.members @ [ n_cur ];
       if cg.members = [ n_cur ] then gamma_v := gamma_of.(max 1 phi_accepted);
       (* ---- step 2: try to close the current cluster ---- *)
       let members_arr = Array.of_list cg.members in
       let msize = Array.length members_arr in
       let gram =
         Linalg.Mat.init msize msize (fun a b ->
             j_dot vs.(members_arr.(a) - 1) vs.(members_arr.(b) - 1))
       in
       let closeable =
         match Linalg.Lu.factor gram with
         | lu -> if Linalg.Lu.rcond_estimate lu > ctol then Some lu else None
         | exception Linalg.Lu.Singular _ -> None
       in
       (match closeable with
       | Some lu ->
         cg.closed <-
           Some
             ( members_arr,
               {
                 Ortho.vecs = Array.map (fun m -> vs.(m - 1)) members_arr;
                 coeffs = Linalg.Lu.solve_vec lu;
               } );
         if Obs.tracing () then begin
           Obs.count "lanczos.clusters_closed" 1;
           if msize > 1 then
             Obs.instant
               ~args:[ ("step", Obs.Int n_cur); ("size", Obs.Int msize) ]
               "lanczos.cluster_closed"
         end;
         (* 2c: J-orthogonalise the remaining candidates against the
            cluster just closed. Candidate at queue position q is
            v̂_{n+1+q} with paper column (n+1+q) − p_c, where the block
            size p_c is the queue length plus the accepted head. *)
         let pc_after = pc () in
         List.iteri
           (fun q cand ->
             ortho_against_clusters cand.vec [ !n_gamma ] (n_cur + q - pc_after))
           !cands;
         (* 2d: open a fresh cluster *)
         new_cluster ()
       | None ->
         incr look_ahead_steps;
         if Obs.tracing () then begin
           Obs.count "lanczos.look_ahead_steps" 1;
           Obs.instant
             ~args:[ ("step", Obs.Int n_cur); ("cluster_size", Obs.Int msize) ]
             "lanczos.look_ahead"
         end);
       (* ---- step 3: new candidate v = F v_n. Runs on the final
          iteration too: its orthogonalisation coefficients are the
          last column of Tₙ. ---- *)
       begin
         let v = op vs.(n_cur - 1) in
         let norm0 = Float.max (Linalg.Vec.norm2 v) 1e-300 in
         if full_ortho then
           (* robust mode: all closed clusters *)
           ortho_against_clusters v (List.init !n_gamma (fun g -> g + 1)) n_cur
         else begin
           (* paper window: inexact-deflation clusters below γ_v, then
              γ_v … γ−1 (the current cluster, when closed, is γ−1 after
              the increment in 2d) *)
           let lo = !gamma_v in
           let below = List.filter (fun g -> g < lo) (List.sort_uniq Int.compare !iv) in
           let window = List.init (max 0 (!n_gamma - lo)) (fun k -> lo + k) in
           ortho_against_clusters v (below @ window) n_cur
         end;
         cands := !cands @ [ { vec = v; norm0 } ]
       end;
       if !step_open then begin
         Obs.span_end ();
         step_open := false
       end
     done
   with Exit -> ());
  if !step_open then Obs.span_end ();
  let order = !nv in
  (* an order-N basis spans the whole space, whether or not a deflation
     said so *)
  if order = nn then exhausted := true;
  (* assemble outputs at the achieved order *)
  let t_mat = Linalg.Mat.submatrix tm 0 0 order order in
  let rho_out = Linalg.Mat.submatrix rho 0 0 order p in
  let delta = Linalg.Mat.create order order in
  for a = 0 to order - 1 do
    for b = 0 to order - 1 do
      if gamma_of.(a + 1) = gamma_of.(b + 1) then
        Linalg.Mat.set delta a b (j_dot vs.(a) vs.(b))
    done
  done;
  let n_clusters =
    if order = 0 then 0
    else
      Array.fold_left
        (fun acc c -> if c.members = [] then acc else acc + 1)
        0 !clusters
  in
  Log.debug (fun m ->
      m "band Lanczos: order=%d p1=%d deflations=%d clusters=%d look-ahead=%d"
        order !p1
        (List.length !deflations)
        n_clusters !look_ahead_steps);
  if run_open then begin
    Obs.gauge "lanczos.order" (float_of_int order);
    Obs.gauge "lanczos.p1" (float_of_int !p1);
    Obs.gauge "lanczos.clusters" (float_of_int n_clusters);
    Obs.span_end ()
  end;
  {
    basis = Array.sub vs 0 order;
    t_mat;
    delta;
    rho = rho_out;
    p1 = !p1;
    order;
    deflations = List.rev !deflations;
    n_clusters;
    look_ahead_steps = !look_ahead_steps;
    exhausted = !exhausted;
  }
