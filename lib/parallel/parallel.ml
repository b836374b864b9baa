module Pool = struct
  type t = {
    jobs : int;
    mutex : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    mutable job : (unit -> unit) option; (* every worker runs the same thunk *)
    mutable generation : int; (* bumped once per submitted batch *)
    mutable pending : int; (* workers still inside the current batch *)
    mutable stop : bool;
    mutable domains : unit Domain.t array;
    busy : Mutex.t; (* held while a loop runs; nested loops degrade to sequential *)
  }

  let jobs t = t.jobs

  let rec worker t last_gen =
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = last_gen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      let gen = t.generation in
      let job = match t.job with Some f -> f | None -> fun () -> () in
      Mutex.unlock t.mutex;
      (* the thunk traps its own exceptions; this is a backstop so a
         worker domain can never die and leave a batch hanging. A trap
         firing means the thunk's own handler failed — record it so a
         dying batch is at least visible in --stats instead of being
         silently dropped. *)
      (try job ()
       with e ->
         if Obs.tracing () then
           Obs.instant
             ~args:[ ("exn", Obs.Str (Printexc.to_string e)) ]
             "pool.worker_trap";
         Obs.count "pool.worker_trap" 1);
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex;
      worker t gen
    end

  let create ~jobs =
    let jobs = max 1 jobs in
    let t =
      {
        jobs;
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        job = None;
        generation = 0;
        pending = 0;
        stop = false;
        domains = [||];
        busy = Mutex.create ();
      }
    in
    (* never oversubscribe the machine: a spawned domain beyond the
       recommended count only adds scheduling overhead to every batch
       (measured 8% per-point regression at jobs=2 on a 1-core box).
       The pool keeps the requested job count for chunk sizing; with no
       spawned workers parallel_for degrades to the sequential loop —
       results are bitwise identical either way. *)
    let spawn = max 0 (min jobs (Domain.recommended_domain_count ()) - 1) in
    if spawn > 0 then
      t.domains <- Array.init spawn (fun _ -> Domain.spawn (fun () -> worker t 0));
    t

  let shutdown t =
    if Array.length t.domains > 0 then begin
      Mutex.lock t.mutex;
      t.stop <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      Array.iter Domain.join t.domains;
      t.domains <- [||]
    end

  let with_pool ~jobs f =
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  (* run [job] on every worker plus the calling domain, return when all
     are done. Caller holds [t.busy]. *)
  let run_batch t job =
    Mutex.lock t.mutex;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    t.pending <- Array.length t.domains;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    job ();
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.job <- None;
    Mutex.unlock t.mutex

  let parallel_for t ?chunk n body =
    if n > 0 then
      (* in race mode a multi-job loop goes through the checked batch
         even when no worker was actually spawned (1-core box):
         run_batch degenerates to running the thunk on the caller, and
         the claim/coverage checks still hold. With sanitizers off the
         degrade condition is exactly the historical one. *)
      if
        t.jobs = 1 || n = 1
        || (Array.length t.domains = 0 && not (San.race ()))
        || not (Mutex.try_lock t.busy)
      then
        for i = 0 to n - 1 do
          body i
        done
      else
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.busy)
          (fun () ->
            let chunk =
              match chunk with
              | Some c -> max 1 c
              | None -> max 1 (n / (4 * t.jobs))
            in
            let nchunks = (n + chunk - 1) / chunk in
            if Obs.tracing () then
              Obs.span_begin
                ~args:
                  [ ("n", Obs.Int n); ("chunks", Obs.Int nchunks); ("jobs", Obs.Int t.jobs) ]
                "pool.batch";
            (* checked-pool mode (SYMOR_SAN=race): every index claims
               its ownership slot before the body runs, the chunk claim
               order is perturbed by a seeded permutation so schedule-
               dependent bugs surface, and the join verifies coverage.
               Slot→index assignment is untouched, so results stay
               bitwise identical. *)
            let batch = if San.race () then Some (San.Race.batch_begin ~n) else None in
            let perm =
              match batch with
              | Some _ -> San.Race.permute ~seed:(San.Race.schedule_seed ()) nchunks
              | None -> [||]
            in
            let body =
              match batch with
              | Some b ->
                fun i ->
                  San.Race.claim b i;
                  body i
              | None -> body
            in
            let next = Atomic.make 0 in
            let err = Atomic.make None in
            let thunk () =
              let continue = ref true in
              while !continue do
                let c = Atomic.fetch_and_add next 1 in
                if c >= nchunks || Atomic.get err <> None then continue := false
                else begin
                  let c = match batch with Some _ -> perm.(c) | None -> c in
                  try
                    for i = c * chunk to min n ((c + 1) * chunk) - 1 do
                      body i
                    done
                  with e ->
                    let bt = Printexc.get_raw_backtrace () in
                    ignore (Atomic.compare_and_set err None (Some (e, bt)))
                end
              done
            in
            run_batch t thunk;
            if Obs.tracing () then Obs.span_end ();
            match Atomic.get err with
            | Some (e, bt) ->
              Option.iter San.Race.batch_abort batch;
              Printexc.raise_with_backtrace e bt
            | None -> Option.iter San.Race.batch_end batch)

  let parallel_map t ?chunk n f =
    (* every slot is filled in place inside the pooled loop, so
       out.(i) = f i holds regardless of which domain computed it; a
       slot left empty means the loop raised, and that is re-raised
       before the read *)
    let out = Array.make (max n 0) None in
    parallel_for t ?chunk n (fun i -> out.(i) <- Some (f i));
    Array.map Option.get out
end

let default_jobs () =
  let auto () = max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "SYMOR_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> auto ())
  | None -> auto ()

(* All process-wide pool state — the shared pool, the requested job
   count and the per-count pool cache — is guarded by one mutex:
   [pool_for] and [get] are safe to call from a worker domain (a
   nested kernel asking for an explicit-jobs pool), and two racing
   callers must agree on one pool per job count or determinism is
   gone. The mutex is never held while waiting for pool work, so it
   cannot deadlock against a running batch. *)
let state_mutex = Mutex.create ()

let shared : Pool.t option ref = ref None (* guarded by state_mutex *)

let requested : int option ref = ref None (* guarded by state_mutex *)

(* explicit-jobs pools, cached by job count: an AC sweep called in a
   loop (bench, adaptive reduction) must not pay domain spawn/join per
   call — that cost dwarfs the sweep itself at small point counts *)
let sized : (int, Pool.t) Hashtbl.t = Hashtbl.create 4 (* guarded by state_mutex *)

let jobs () =
  Mutex.lock state_mutex;
  let j =
    match !shared with
    | Some p -> Pool.jobs p
    | None -> ( match !requested with Some j -> j | None -> default_jobs ())
  in
  Mutex.unlock state_mutex;
  j

let set_jobs j =
  let j = max 1 j in
  Mutex.lock state_mutex;
  requested := Some j;
  let stale =
    match !shared with
    | Some p when Pool.jobs p <> j ->
      shared := None;
      Some p
    | _ -> None
  in
  Mutex.unlock state_mutex;
  (* join the replaced pool's domains outside the lock: a worker of
     some other pool may be blocked on [jobs ()] right now *)
  Option.iter Pool.shutdown stale

let pool_for ~jobs =
  let jobs = max 1 jobs in
  Mutex.lock state_mutex;
  match Hashtbl.find_opt sized jobs with
  | Some p ->
    Mutex.unlock state_mutex;
    p
  | None -> (
    (* create under the lock: two racing callers must get the same
       pool, not spawn one each (the san race test pins this) *)
    match Pool.create ~jobs with
    | p ->
      Hashtbl.add sized jobs p;
      Mutex.unlock state_mutex;
      p
    | exception e ->
      Mutex.unlock state_mutex;
      raise e)

let pool_count () =
  Mutex.lock state_mutex;
  let n = Hashtbl.length sized in
  Mutex.unlock state_mutex;
  n

let get () =
  Mutex.lock state_mutex;
  match !shared with
  | Some p ->
    Mutex.unlock state_mutex;
    p
  | None -> (
    let j = match !requested with Some j -> j | None -> default_jobs () in
    match Pool.create ~jobs:j with
    | p ->
      shared := Some p;
      Mutex.unlock state_mutex;
      p
    | exception e ->
      Mutex.unlock state_mutex;
      raise e)

let () =
  at_exit (fun () ->
      Mutex.lock state_mutex;
      let pools = Hashtbl.fold (fun _ p acc -> p :: acc) sized [] in
      Hashtbl.reset sized;
      let s = !shared in
      shared := None;
      Mutex.unlock state_mutex;
      Option.iter Pool.shutdown s;
      List.iter Pool.shutdown pools)
