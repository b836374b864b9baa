(* lib/obs unit tests: span nesting and stats, counter/gauge merge,
   Chrome-trace export shape, the zero-allocation contract of disabled
   probes, determinism of the pooled AC sweep with tracing enabled, and
   the qcheck reduction property that reads its evidence back out of
   obs counters. *)

let with_tracing f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let span_stat name =
  List.find_opt (fun st -> st.Obs.span_name = name) (Obs.span_stats ())

(* ------------------------------------------------------------------ *)
(* spans, counters, gauges                                             *)

let test_span_nesting_stats () =
  with_tracing @@ fun () ->
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ());
      Obs.with_span "inner" (fun () -> ()));
  (try Obs.with_span "boom" (fun () -> failwith "deliberate") with Failure _ -> ());
  (match span_stat "outer" with
  | Some st ->
    Alcotest.(check int) "outer calls" 1 st.Obs.calls;
    Alcotest.(check bool) "outer total >= 0" true (st.Obs.total_s >= 0.0);
    Alcotest.(check bool) "outer max >= min" true (st.Obs.max_s >= st.Obs.min_s)
  | None -> Alcotest.fail "no stats for 'outer'");
  (match span_stat "inner" with
  | Some st -> Alcotest.(check int) "inner calls" 2 st.Obs.calls
  | None -> Alcotest.fail "no stats for 'inner'");
  (* with_span must close the span on the exception path too *)
  match span_stat "boom" with
  | Some st -> Alcotest.(check int) "boom calls" 1 st.Obs.calls
  | None -> Alcotest.fail "no stats for 'boom' (span leaked on exception)"

let test_counters_gauges () =
  with_tracing @@ fun () ->
  Obs.count "t.count" 2;
  Obs.count "t.count" 3;
  Obs.countf "t.countf" 0.25;
  Obs.countf "t.countf" 0.5;
  Obs.gauge "t.gauge" 1.0;
  Obs.gauge "t.gauge" 42.0;
  Alcotest.(check (float 0.0)) "int counter sums" 5.0 (Obs.counter_value "t.count");
  Alcotest.(check (float 1e-12)) "float counter sums" 0.75 (Obs.counter_value "t.countf");
  Alcotest.(check (float 0.0)) "unknown counter is 0" 0.0 (Obs.counter_value "t.nope");
  (match Obs.gauge_value "t.gauge" with
  | Some v -> Alcotest.(check (float 0.0)) "gauge latest wins" 42.0 v
  | None -> Alcotest.fail "gauge not recorded");
  Alcotest.(check bool) "counters listed" true
    (List.mem_assoc "t.count" (Obs.counters ()))

let test_disabled_probes_record_nothing () =
  Obs.reset ();
  Obs.disable ();
  Obs.span_begin "ghost";
  Obs.count "ghost.count" 7;
  Obs.gauge "ghost.gauge" 1.0;
  Obs.span_end ();
  Alcotest.(check bool) "no span" true (span_stat "ghost" = None);
  Alcotest.(check (float 0.0)) "no counter" 0.0 (Obs.counter_value "ghost.count");
  Alcotest.(check bool) "no gauge" true (Obs.gauge_value "ghost.gauge" = None)

(* ------------------------------------------------------------------ *)
(* Chrome-trace export                                                 *)

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let c = ref 0 in
  for i = 0 to nh - nn do
    if String.sub hay i nn = needle then incr c
  done;
  !c

let test_export_chrome () =
  with_tracing @@ fun () ->
  Obs.span_begin ~args:[ ("n", Obs.Int 3); ("x", Obs.Float 1.5) ] "phase.a";
  Obs.instant ~args:[ ("why", Obs.Str "de\"flation") ] "evt";
  Obs.span_end ();
  Obs.count "c.points" 4;
  let json = Obs.export_chrome () in
  Alcotest.(check int) "one B" 1 (count_substring json "\"ph\":\"B\"");
  Alcotest.(check int) "one E" 1 (count_substring json "\"ph\":\"E\"");
  Alcotest.(check int) "one instant" 1 (count_substring json "\"ph\":\"i\"");
  Alcotest.(check bool) "span name present" true
    (count_substring json "\"name\":\"phase.a\"" > 0);
  Alcotest.(check bool) "int arg present" true (count_substring json "\"n\":3" > 0);
  Alcotest.(check bool) "counter sample present" true
    (count_substring json "\"ph\":\"C\"" > 0);
  Alcotest.(check bool) "quote in Str escaped" true
    (count_substring json "de\\\"flation" > 0);
  (* structural sanity a Chrome load needs: balanced braces/brackets *)
  let balance opn cls =
    let n = ref 0 in
    String.iter (fun ch -> if ch = opn then incr n else if ch = cls then decr n) json;
    !n
  in
  Alcotest.(check int) "braces balance" 0 (balance '{' '}');
  Alcotest.(check int) "brackets balance" 0 (balance '[' ']')

(* ------------------------------------------------------------------ *)
(* request-scoped marks: export_chrome_since / truncate                *)

let test_mark_export_truncate () =
  with_tracing @@ fun () ->
  Obs.with_span "before.mark" (fun () -> ());
  Obs.count "mark.counter" 2;
  let m = Obs.mark () in
  Obs.with_span "after.mark" (fun () -> Obs.count "mark.counter" 3);
  let sub = Obs.export_chrome_since m in
  Alcotest.(check bool) "subtree has post-mark span" true
    (count_substring sub "\"name\":\"after.mark\"" > 0);
  Alcotest.(check int) "subtree omits pre-mark span" 0
    (count_substring sub "\"name\":\"before.mark\"");
  let before_events = Obs.buffered_events () in
  Alcotest.(check bool) "events recorded" true (before_events > 0);
  Obs.truncate m;
  Alcotest.(check bool) "truncate drops post-mark events" true
    (Obs.buffered_events () < before_events);
  (* counters are cumulative state, not buffer events: they survive *)
  Alcotest.(check (float 0.0)) "counter survives truncation" 5.0
    (Obs.counter_value "mark.counter");
  let full = Obs.export_chrome () in
  Alcotest.(check bool) "pre-mark span still exported" true
    (count_substring full "\"name\":\"before.mark\"" > 0);
  Alcotest.(check int) "post-mark span gone from full export" 0
    (count_substring full "\"name\":\"after.mark\"")

let test_mark_truncate_bounded () =
  with_tracing @@ fun () ->
  (* the serve daemon's per-request cycle: mark, record a span subtree,
     export it, truncate.  Over many requests the buffers must stay
     bounded (regression for unbounded trace growth in a daemon). *)
  let worst = ref 0 in
  for i = 1 to 5_000 do
    let m = Obs.mark () in
    Obs.with_span "serve.request" (fun () -> Obs.count "serve.requests" 1);
    let sub = Obs.export_chrome_since m in
    if i mod 1000 = 0 then
      Alcotest.(check bool) "subtree carries the request span" true
        (count_substring sub "\"name\":\"serve.request\"" > 0);
    Obs.truncate m;
    worst := max !worst (Obs.buffered_events ())
  done;
  Alcotest.(check bool) "buffers stay bounded" true (!worst < 4096);
  Alcotest.(check (float 0.0)) "counters kept accumulating" 5000.0
    (Obs.counter_value "serve.requests")

(* ------------------------------------------------------------------ *)
(* the cost contract: disabled probes allocate nothing                 *)

let test_disabled_zero_alloc () =
  Obs.disable ();
  Obs.reset ();
  let iters = 200_000 in
  let before = Gc.allocated_bytes () in
  for i = 0 to iters - 1 do
    Obs.span_begin "alloc.gate";
    Obs.count "alloc.count" i;
    if Obs.tracing () then Obs.countf "alloc.countf" (float_of_int i);
    Obs.span_end ()
  done;
  let delta = Gc.allocated_bytes () -. before in
  if delta > 1024.0 then
    Alcotest.failf "disabled probes allocated %.0f bytes over %d iterations" delta iters

(* ------------------------------------------------------------------ *)
(* tracing must not perturb the pooled sweep                           *)

let bits_equal_cmat p a b =
  let eq_f x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let ok = ref true in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      let x = Linalg.Cmat.get a i j and y = Linalg.Cmat.get b i j in
      if not (eq_f x.Complex.re y.Complex.re && eq_f x.Complex.im y.Complex.im) then
        ok := false
    done
  done;
  !ok

let sweeps_bitwise_equal (a : Simulate.Ac.sweep) (b : Simulate.Ac.sweep) =
  let p = Array.length a.Simulate.Ac.port_names in
  Array.length a.Simulate.Ac.z = Array.length b.Simulate.Ac.z
  && Array.for_all2 (bits_equal_cmat p) a.Simulate.Ac.z b.Simulate.Ac.z

let test_tracing_on_sweep_deterministic () =
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:3 ~sections:12 () in
  let mna = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:17 1e6 1e10 in
  let off = Simulate.Ac.sweep ~jobs:1 mna freqs in
  with_tracing @@ fun () ->
  let on1 = Simulate.Ac.sweep ~jobs:1 mna freqs in
  let on2 = Simulate.Ac.sweep ~jobs:2 mna freqs in
  Alcotest.(check bool) "tracing on == off (jobs 1)" true (sweeps_bitwise_equal off on1);
  Alcotest.(check bool) "tracing on, jobs 2 == jobs 1" true
    (sweeps_bitwise_equal on1 on2);
  (* the pooled run recorded per-point spans across domain buffers *)
  match span_stat "ac.point" with
  | Some st ->
    Alcotest.(check int) "ac.point spans merged from all domains"
      (2 * Array.length freqs) st.Obs.calls
  | None -> Alcotest.fail "no ac.point spans recorded"

(* ------------------------------------------------------------------ *)
(* qcheck: reduction contract with counter-backed evidence             *)

let prop_reduced_rc_contract =
  QCheck.Test.make ~count:10
    ~name:"obs: random RC reduction is stable+passive; counters back the telemetry"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let nl = Circuit.Generators.random_rc ~ports:2 ~nodes:14 ~extra_edges:10 ~seed () in
      let m = Circuit.Mna.assemble_rc nl in
      let p = m.Circuit.Mna.b.Linalg.Mat.cols in
      List.for_all
        (fun order ->
          with_tracing @@ fun () ->
          let model = Sympvl.Reduce.mna ~order m in
          (* stable: MOD001 (and MOD002) info; passive: the structural
             certificate holds on this definite unshifted path *)
          let stable_and_passive =
            List.for_all
              (fun d -> d.Circuit.Diagnostic.severity = Circuit.Diagnostic.Info)
              (Sympvl.Certify.structural (Sympvl.Rom.Sympvl_model model) m)
            &&
            match Sympvl.Certify.structural_certificate model.Sympvl.Model.real with
            | Sympvl.Certify.Certified _ -> true
            | _ -> false
          in
          (* the instrumented Lanczos run must leave sane telemetry:
             deflation count is a non-negative merged counter and the
             moment-match bound of the paper is met and recorded *)
          let deflations = Obs.counter_value "lanczos.deflations" in
          let mm = Sympvl.Moments.matched_count ~rtol:1e-4 model m in
          Obs.count "test.moment_matches" mm;
          stable_and_passive && deflations >= 0.0
          && mm >= 2 * (order / p)
          && int_of_float (Obs.counter_value "test.moment_matches") = mm)
        [ 2; 4; 6 ])

let () =
  Alcotest.run "obs"
    [
      ( "core",
        [
          Alcotest.test_case "span nesting + stats" `Quick test_span_nesting_stats;
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
          Alcotest.test_case "disabled probes record nothing" `Quick
            test_disabled_probes_record_nothing;
          Alcotest.test_case "chrome export" `Quick test_export_chrome;
          Alcotest.test_case "mark / export_since / truncate" `Quick
            test_mark_export_truncate;
          Alcotest.test_case "truncate keeps buffers bounded" `Quick
            test_mark_truncate_bounded;
          Alcotest.test_case "disabled probes allocate nothing" `Quick
            test_disabled_zero_alloc;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pooled sweep bitwise with tracing on" `Quick
            test_tracing_on_sweep_deterministic;
        ] );
      ("properties", [ Qtest.to_alcotest prop_reduced_rc_contract ]);
    ]
