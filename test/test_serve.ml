(* serve daemon harness.  The daemon may own spawned domains, so the
   tests never fork it in-process: they spawn the real [symor] binary
   (a dune dep of this test) and talk to it over a Unix socket with
   [Serve.Client], exactly as a user would.

   Covered here:
     - direct [Serve.Cache] units: content-hash keying, strict-LRU
       eviction under the entry bound, deferred eviction of a pinned
       (in-use) pencil context, the doomed-ghost re-request path, model
       memoisation, exact bit-pattern point keying, and a sweep past
       the point-table bound;
     - a finding renders to the same bytes through Protocol as the
       field-by-field Json rendering (quote, backslash, newline and
       control characters in the message, integer and null line);
     - the codec against its references (qcheck): [Json.parse] gives
       the value or the [Parse_error] text of the byte-at-a-time
       decoder in [Json_reference] on random bytes and random JSON
       (escapes, surrogate pairs, control bytes, long runs, broken
       and over-deep input), and [Num] renders as [Printf "%.17g"]
       on random finite doubles;
     - framing: the same requests written one per line, all in one
       write, in pieces of 1 byte to 40 KB, or with CRLF ends (one
       split between two reads) get the same response bytes;
     - protocol fuzz (qcheck, seeded through Qtest for replay):
       arbitrary junk bytes and semantically-bad requests each get one
       JSON error response with stable SRV* codes, the connection stays
       usable, and the daemon survives;
     - parity: concurrent clients sweeping every shipped example
       netlist get responses that are bit-identical to the committed
       test/golden fixtures at --jobs 1 and --jobs 2, and identical
       bytes across the two job counts;
     - single-flight: two clients racing on the same uncached netlist
       cost exactly one cache miss and get identical bytes;
     - same-tick requests: two identical sweeps arriving in one tick
       cost one sweep (the twin is a point-table hit), and a request
       whose point meets a zero pivot does not fail its neighbour;
     - cli: one certify request gives the same findings through
       `symor certify --json`, `symor reduce --certify` and the serve
       certify op, MOD010 included; an unknown `tran` observe name is a one-line user
       error on the CLI and leaves the daemon's cached netlist intact;
       a zero pivot in an exact jω factor is a one-line user error
       naming the unknown on the CLI and an SRV007 finding in serve;
       one table of out-of-range requests gets the same message as a
       one-line CLI error and as a serve SRV004 finding (`reduce
       --synth` on an LC netlist is a CLI-only row); single-port
       SyMPVL models outside Foster form synthesize to a netlist with
       the original's Z(jω); `symor request` against a dead socket is
       a one-line user error;
     - lifecycle: SIGTERM drains the in-flight request (answered with
       golden-exact data) before a clean exit 0, a long run of traced
       requests leaves the obs buffers bounded, and a reduce at order
       100000 answers at the pencil size and leaves the daemon up. *)

module J = Serve.Json

(* cwd is the test directory under `dune runtest` but the workspace
   root under `dune exec` — accept either *)
let find_path cands =
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let netlist_path base =
  find_path
    [ "../examples/netlists/" ^ base ^ ".cir"; "examples/netlists/" ^ base ^ ".cir" ]

let golden_path base =
  find_path [ "golden/" ^ base ^ ".golden"; "test/golden/" ^ base ^ ".golden" ]

let symor_exe =
  find_path [ "../bin/symor.exe"; "_build/default/bin/symor.exe"; "bin/symor.exe" ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* daemon process harness                                              *)

let sock_counter = ref 0

(* spawn `symor serve --socket <fresh>` and pass (addr, pid) to [f];
   on the way out, SIGTERM the daemon and assert it exits 0 (clean
   shutdown is part of every test) *)
let with_server ?(args = []) f =
  incr sock_counter;
  let sock =
    Printf.sprintf "/tmp/symor-test-%d-%d.sock" (Unix.getpid ()) !sock_counter
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0o644 in
  let pid =
    Unix.create_process symor_exe
      (Array.of_list ((symor_exe :: "serve" :: "--socket" :: sock :: args)))
      devnull devnull devnull
  in
  Unix.close devnull;
  let reap () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
    | Unix.WSIGNALED n -> Alcotest.failf "daemon killed by signal %d" n
    | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped"
  in
  Fun.protect ~finally:reap (fun () -> f ((`Unix sock : Serve.Protocol.addr), pid))

let with_client addr f =
  let c = Serve.Client.connect addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let recv_exn c =
  match Serve.Client.recv_line c with
  | Some l -> l
  | None -> Alcotest.fail "unexpected EOF from daemon"

let request_exn c line =
  Serve.Client.send_line c line;
  recv_exn c

(* ------------------------------------------------------------------ *)
(* response plumbing                                                   *)

let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let jbool k j = J.to_bool_opt (J.member k j)

let jint_exn k j =
  match J.to_int_opt (J.member k j) with
  | Some n -> n
  | None -> Alcotest.failf "response field %S is not an integer" k

let jfloat_exn j =
  match J.to_float_opt j with
  | Some x -> x
  | None -> Alcotest.fail "expected a number"

let jlist_exn j =
  match J.to_list_opt j with
  | Some l -> l
  | None -> Alcotest.fail "expected a list"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let ping_seq = ref 0

(* a ping with a fresh id pins request/response alignment: if the
   previous request had produced zero or two response lines, the echoed
   id would not match *)
let check_ping c =
  incr ping_seq;
  let id = !ping_seq in
  let j = J.parse (request_exn c (Printf.sprintf {|{"id":%d,"op":"ping"}|} id)) in
  if jbool "pong" j <> Some true then Alcotest.fail "ping: no pong";
  if J.to_int_opt (J.member "id" j) <> Some id then
    Alcotest.fail "ping: wrong id echoed (response misalignment)"

(* ------------------------------------------------------------------ *)
(* finding rendering                                                   *)

let test_finding_json () =
  let message = "a \"quoted\" C:\\path\nnext line\ttab\r\001\031 end" in
  List.iter
    (fun line ->
      let d =
        Circuit.Diagnostic.make ?line ~code:"SRV007" ~severity:Circuit.Diagnostic.Error
          message
      in
      let by_field =
        J.Obj
          [
            ("code", J.Str "SRV007");
            ("severity", J.Str "error");
            ("message", J.Str message);
            ("line", match line with Some l -> J.Num (float_of_int l) | None -> J.Null);
          ]
      in
      Alcotest.(check string) "same bytes" (J.to_string by_field)
        (J.to_string (Serve.Protocol.diag_to_json d)))
    [ Some 12; None ]

(* ------------------------------------------------------------------ *)
(* codec against its references                                        *)

module G = QCheck.Gen

let outcome parse s = match parse s with v -> Ok v | exception J.Parse_error m -> Error m

let rec same a b =
  match (a, b) with
  | J.Num x, J.Num y -> feq x y
  | J.List xs, J.List ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && same v v') xs ys
  | _ -> a = b

let same_outcome text =
  match (outcome J.parse text, outcome Json_reference.parse text) with
  | Ok v, Ok v' -> same v v' || QCheck.Test.fail_reportf "different values for %S" text
  | Error m, Error m' ->
    String.equal m m' || QCheck.Test.fail_reportf "errors differ: %S vs %S" m m'
  | Ok _, Error m -> QCheck.Test.fail_reportf "reference rejects (%s), library accepts" m
  | Error m, Ok _ -> QCheck.Test.fail_reportf "library rejects (%s), reference accepts" m

(* plain bytes with the quote and backslash folded away *)
let plain lo hi len =
  G.map
    (String.map (fun ch -> if ch = '"' || ch = '\\' then 'x' else ch))
    (G.string_size ~gen:(G.char_range lo hi) len)

(* one piece of a string body: plain runs (short, long, high bytes),
   every simple escape, \u escapes, surrogate pairs, and the malformed
   cases each error message names *)
let string_piece =
  G.frequency
    [
      (6, plain ' ' '~' (G.int_range 0 12));
      (1, plain ' ' '\255' (G.int_range 1000 5000));
      (2, plain '\128' '\255' (G.int_range 1 4));
      (3, G.oneofl [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|}; {|\t|} ]);
      (2, G.map (Printf.sprintf "\\u%04x") (G.int_range 0 0xFFFF));
      (1, G.map (Printf.sprintf "\\u%04X") (G.int_range 0 0xFFFF));
      ( 2,
        G.map2 (Printf.sprintf "\\u%04x\\u%04X") (G.int_range 0xD800 0xDBFF)
          (G.int_range 0xDC00 0xDFFF) );
      ( 1,
        G.oneofl
          [ {|\x|}; {|\u12|}; {|\u12G4|}; {|\ud800|}; {|\ud800\u0041|}; {|\udc00|};
            {|\ud800x|}; {|\ud800\|}; "\001"; "\031"; "\\" ] );
    ]

let json_string =
  G.map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (G.list_size (G.int_range 0 8) string_piece)

let blank = G.oneofl [ ""; ""; " "; "\n\t "; "\r\n" ]

let json_number =
  G.frequency
    [
      (3, G.map (Printf.sprintf "%.17g") G.float);
      (2, G.map string_of_int G.int);
      (1, G.oneofl [ "-"; "1e999"; "1.2.3"; "-0"; "0.5e-3"; "1E+2"; "--1"; "12e"; "1_0" ]);
    ]

let json_value =
  G.sized_size (G.int_range 0 4)
  @@ G.fix (fun self depth ->
         let leaf =
           G.frequency
             [
               (3, json_string);
               (2, json_number);
               (1, G.oneofl [ "null"; "true"; "false"; "nul"; "tru"; "x" ]);
             ]
         in
         let items = G.list_size (G.int_range 0 4) (G.map2 ( ^ ) blank (self (depth - 1))) in
         let fields =
           G.list_size (G.int_range 0 4)
             (G.map2 (fun k v -> k ^ ":" ^ v) json_string (self (depth - 1)))
         in
         if depth <= 0 then leaf
         else
           G.frequency
             [
               (2, leaf);
               (1, G.map (fun xs -> "[" ^ String.concat "," xs ^ "]") items);
               (1, G.map (fun xs -> "{" ^ String.concat ", " xs ^ "}") fields);
             ])

(* a generated value, kept or broken: cut short, a byte replaced or a
   byte inserted; or nesting past the depth limit *)
let json_text =
  let mutate text =
    let n = String.length text in
    G.frequency
      [
        (4, G.return text);
        (1, G.map (fun k -> String.sub text 0 k) (G.int_range 0 n));
        ( 1,
          G.map2
            (fun k ch ->
              if n = 0 then text else String.mapi (fun i c -> if i = k mod n then ch else c) text)
            G.nat G.char );
        ( 1,
          G.map2
            (fun k ch ->
              let k = k mod (n + 1) in
              String.sub text 0 k ^ String.make 1 ch ^ String.sub text k (n - k))
            G.nat G.char );
      ]
  in
  G.frequency
    [
      (20, G.(map2 (fun a v -> a ^ v) blank json_value >>= mutate));
      (1, G.map (fun k -> String.make k '[' ^ String.make k ']') (G.int_range 500 520));
    ]

let prop_decode_json =
  QCheck.Test.make ~count:1000 ~name:"json: decoder = reference on random JSON"
    (QCheck.make ~print:(Printf.sprintf "%S") json_text)
    same_outcome

let prop_decode_bytes =
  let alphabet = G.oneofl (List.of_seq (String.to_seq {|{}[]",:\u0123456789abcdefABCDEF.-+eE tnl|})) in
  QCheck.Test.make ~count:1000 ~name:"json: decoder = reference on random bytes"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (G.frequency
          [ (1, G.string_size ~gen:G.char (G.int_range 0 64)); (1, G.string_of alphabet) ]))
    same_outcome

let prop_render_num =
  let finite =
    G.frequency
      [
        ( 4,
          G.map
            (fun b ->
              let v = Int64.float_of_bits b in
              if Float.is_finite v then v else 0.0)
            G.int64 );
        (2, G.float);
        ( 1,
          G.oneofl
            [ 0.0; -0.0; 5e-324; -5e-324; 2.225073858507201e-308; Float.min_float; Float.max_float;
              -.Float.max_float; Float.epsilon; 0.1; 1e21; 1e-7; 123456789012345680.0 ] );
      ]
  in
  QCheck.Test.make ~count:2000 ~name:"json: Num renders as Printf %.17g"
    (QCheck.make ~print:(Printf.sprintf "%h") finite)
    (fun v -> String.equal (J.to_string (J.Num v)) (Printf.sprintf "%.17g" v))

(* ------------------------------------------------------------------ *)
(* cache units (in-process, no daemon)                                 *)

let grid rows cols =
  Circuit.Parser.to_string (Circuit.Generators.rc_grid ~rows ~cols ())

let test_cache_keying () =
  let t = Serve.Cache.create ~max_entries:4 in
  let a = grid 2 2 in
  let e1 = Serve.Cache.find t a in
  let e2 = Serve.Cache.find t a in
  Alcotest.(check bool) "same text, same entry" true (e1 == e2);
  Alcotest.(check string) "entry keyed by content hash" (Serve.Cache.key_of_text a)
    (Serve.Cache.key e1);
  let s = Serve.Cache.stats t in
  Alcotest.(check int) "one miss" 1 s.Serve.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Serve.Cache.hits;
  (* a one-character perturbation (extra blank line) parses to the same
     circuit but is a different text: content hashing must miss *)
  let e3 = Serve.Cache.find t (a ^ "\n") in
  Alcotest.(check bool) "perturbed text is a distinct entry" true (not (e1 == e3));
  let s = Serve.Cache.stats t in
  Alcotest.(check int) "perturbed text misses" 2 s.Serve.Cache.misses;
  Alcotest.(check int) "two entries live" 2 s.Serve.Cache.entries

let test_cache_lru () =
  let t = Serve.Cache.create ~max_entries:2 in
  let a = grid 2 2 and b = grid 2 3 and c = grid 3 2 in
  ignore (Serve.Cache.find t a);
  ignore (Serve.Cache.find t b);
  ignore (Serve.Cache.find t a);
  (* a was touched after b, so b is the LRU victim *)
  ignore (Serve.Cache.find t c);
  Alcotest.(check bool) "recently-used entry kept" true
    (Serve.Cache.mem_key t (Serve.Cache.key_of_text a));
  Alcotest.(check bool) "LRU entry evicted" false
    (Serve.Cache.mem_key t (Serve.Cache.key_of_text b));
  Alcotest.(check bool) "newcomer kept" true
    (Serve.Cache.mem_key t (Serve.Cache.key_of_text c));
  Alcotest.(check int) "one eviction" 1 (Serve.Cache.stats t).Serve.Cache.evictions

let test_cache_deferred_eviction () =
  let t = Serve.Cache.create ~max_entries:1 in
  let a = grid 2 2 and b = grid 2 3 in
  let ea = Serve.Cache.find t a in
  let ka = Serve.Cache.key_of_text a in
  Serve.Cache.pin ea;
  let ctx_before = Serve.Cache.ctx ea in
  ignore (Serve.Cache.find t b);
  (* the LRU victim is pinned by an in-flight request: it must be
     doomed, not dropped, and its pencil context must stay usable *)
  Alcotest.(check bool) "pinned victim still resident" true (Serve.Cache.mem_key t ka);
  Alcotest.(check int) "no eviction while pinned" 0
    (Serve.Cache.stats t).Serve.Cache.evictions;
  Alcotest.(check bool) "context untouched mid-request" true
    (Serve.Cache.ctx ea == ctx_before);
  Serve.Cache.unpin t ea;
  Alcotest.(check bool) "dropped once the request completed" false
    (Serve.Cache.mem_key t ka);
  Alcotest.(check int) "eviction completed at unpin" 1
    (Serve.Cache.stats t).Serve.Cache.evictions

let test_cache_doomed_ghost () =
  let t = Serve.Cache.create ~max_entries:1 in
  let a = grid 2 2 and b = grid 2 3 in
  let ea = Serve.Cache.find t a in
  Serve.Cache.pin ea;
  ignore (Serve.Cache.find t b) (* dooms the pinned [a] *);
  (* re-requesting the doomed netlist builds a fresh entry under the
     content key; the ghost survives under a shadow key until unpin *)
  let ea2 = Serve.Cache.find t a in
  Alcotest.(check bool) "fresh entry, not the ghost" true (not (ea == ea2));
  Alcotest.(check string) "fresh entry owns the content key"
    (Serve.Cache.key_of_text a) (Serve.Cache.key ea2);
  Alcotest.(check bool) "ghost re-keyed away" true
    (Serve.Cache.key ea <> Serve.Cache.key ea2);
  Serve.Cache.unpin t ea;
  Alcotest.(check bool) "fresh entry survives the ghost's death" true
    (Serve.Cache.mem_key t (Serve.Cache.key_of_text a))

let test_cache_model_and_points () =
  let t = Serve.Cache.create ~max_entries:2 in
  let e = Serve.Cache.find t (grid 4 4) in
  let request op order = { (Ops.default op) with Ops.order } in
  let _, c1 = Serve.Cache.model t e (request Ops.Reduce 4) in
  let _, c2 = Serve.Cache.model t e (request Ops.Reduce 4) in
  Alcotest.(check bool) "first build not cached" false c1;
  Alcotest.(check bool) "repeat configuration cached" true c2;
  Alcotest.(check int) "one model build" 1
    (Serve.Cache.stats t).Serve.Cache.model_builds;
  let _, c3 = Serve.Cache.model t e (request Ops.Reduce 6) in
  Alcotest.(check bool) "different order rebuilds" false c3;
  (* certify's automatic order resolves to N = 16 before the lookup *)
  let _, c4 = Serve.Cache.model t e (request Ops.Reduce 16) in
  let _, c5 = Serve.Cache.model t e (request Ops.Certify 0) in
  Alcotest.(check bool) "full order builds" false c4;
  Alcotest.(check bool) "certify at auto order shares it" true c5;
  (* point table: exact bit-pattern keying, no float tolerance *)
  let tally () =
    let s = Serve.Cache.stats t in
    (s.Serve.Cache.point_hits, s.Serve.Cache.point_misses)
  in
  let z1 = Serve.Cache.points t e [| 1e9 |] in
  let z2 = Serve.Cache.points t e [| 1e9 |] in
  Alcotest.(check (pair int int)) "1e9 misses, then hits" (1, 1) (tally ());
  Alcotest.(check bool) "the hit answers the stored point" true (z1.(0) == z2.(0));
  ignore (Serve.Cache.points t e [| Float.succ 1e9 |]);
  Alcotest.(check (pair int int)) "ULP-nudged frequency misses" (1, 2) (tally ());
  (* one sweep past the table bound (8192 points) clears the table
     while storing, yet answers every point *)
  let many = Array.init 9000 (fun i -> 1e6 *. float_of_int (i + 1)) in
  let zs = Serve.Cache.points t e many in
  Alcotest.(check int) "every point answered" 9000 (Array.length zs);
  Alcotest.(check bool) "in request order" true
    (Linalg.Cmat.get zs.(999) 0 0 = Linalg.Cmat.get (Serve.Cache.points t e [| 1e9 |]).(0) 0 0)

(* ------------------------------------------------------------------ *)
(* protocol fuzz                                                       *)

(* the protocol is line-based: a newline would split one fuzz case into
   several requests, so fold line breaks into spaces *)
let sanitize s = String.map (fun ch -> if ch = '\n' || ch = '\r' then ' ' else ch) s

let test_fuzz_junk () =
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  let prop raw =
    let resp = request_exn c (sanitize raw) in
    let j =
      try J.parse resp
      with J.Parse_error m ->
        Alcotest.failf "daemon answered junk with non-JSON %S (%s)" resp m
    in
    (match jbool "ok" j with
    | Some false ->
      if jint_exn "status" j <> 2 then Alcotest.fail "error response without status 2"
    | Some true -> () (* the fuzzer stumbled on a valid request — fine *)
    | None -> Alcotest.fail "response without an ok field");
    check_ping c;
    true
  in
  QCheck.Test.check_exn ~rand:(Qtest.rand ())
    (QCheck.Test.make ~count:100
       ~name:"serve: junk bytes get one JSON error; connection stays usable"
       QCheck.string prop)

let test_fuzz_semantic () =
  let nl = J.to_string (J.Str (read_file (netlist_path "rc_line"))) in
  let cases =
    [|
      (Printf.sprintf {|{"id":0,"op":"reduce","netlist":%s,"engine":"warp"}|} nl, "SRV006");
      (Printf.sprintf {|{"id":1,"op":"reduce","netlist":%s,"order":-3}|} nl, "SRV004");
      (Printf.sprintf {|{"id":2,"op":"ac","netlist":%s,"points":1}|} nl, "SRV004");
      ({|{"id":3,"op":"reduce","netlist":""}|}, "SRV005");
      ({|{"id":4,"op":"reduce"}|}, "SRV005");
      ({|{"id":5,"op":"frobnicate"}|}, "SRV003");
      ({|{"id":6}|}, "SRV003");
      ({|[1,2,3]|}, "SRV002");
      ({|{"id":7,"op":"ac","netlist":|}, "SRV001");
    |]
  in
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  let prop i =
    let line, code = cases.(i) in
    let resp = request_exn c line in
    let j = J.parse resp in
    if jbool "ok" j <> Some false then
      Alcotest.failf "case %d: expected ok:false, got %s" i resp;
    if jint_exn "status" j <> 2 then Alcotest.failf "case %d: expected status 2" i;
    if not (contains resp code) then
      Alcotest.failf "case %d: expected a %s finding in %s" i code resp;
    check_ping c;
    true
  in
  QCheck.Test.check_exn ~rand:(Qtest.rand ())
    (QCheck.Test.make ~count:40
       ~name:"serve: semantically-bad requests get stable SRV codes"
       (QCheck.int_range 0 (Array.length cases - 1))
       prop)

(* ------------------------------------------------------------------ *)
(* golden parity                                                       *)

let names = [ "rc_line"; "lc_tank"; "rl_ladder"; "coupled_lines" ]

type gentry = { gfreq : float; grow : int; gcol : int; gmag : float; gphase : float }

let read_fixture path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%e %d %d %e %e" (fun gfreq grow gcol gmag gphase ->
             entries := { gfreq; grow; gcol; gmag; gphase } :: !entries)
     done
   with End_of_file -> close_in ic);
  List.rev !entries

(* the golden grid: 16 log points, 1e6..1e10 Hz (test_golden.ml) *)
let ac_request text =
  Printf.sprintf {|{"op":"ac","netlist":%s,"flo":1e6,"fhi":1e10,"points":16}|}
    (J.to_string (J.Str text))

(* The daemon's %.17g rendering round-trips doubles exactly, so the
   response carries the sweep's exact bits: reconstructing |Z| and
   arg Z here must reproduce the fixture doubles bit for bit. *)
let check_against_golden name resp =
  let j = J.parse resp in
  if jbool "ok" j <> Some true then Alcotest.failf "%s: ac request failed: %s" name resp;
  Alcotest.(check int) (name ^ ": status") 0 (jint_exn "status" j);
  let freqs = Array.of_list (List.map jfloat_exn (jlist_exn (J.member "freqs" j))) in
  Alcotest.(check int) (name ^ ": grid size") 16 (Array.length freqs);
  let z =
    jlist_exn (J.member "z" j)
    |> List.map (fun per_freq ->
           jlist_exn per_freq
           |> List.map (fun row ->
                  jlist_exn row
                  |> List.map (fun cell ->
                         match jlist_exn cell with
                         | [ re; im ] ->
                           { Complex.re = jfloat_exn re; im = jfloat_exn im }
                         | _ -> Alcotest.fail "malformed z cell")
                  |> Array.of_list)
           |> Array.of_list)
    |> Array.of_list
  in
  List.iter
    (fun g ->
      let rec locate i =
        if i >= Array.length freqs then
          Alcotest.failf "%s: fixture frequency %.17e missing from response" name
            g.gfreq
        else if feq freqs.(i) g.gfreq then i
        else locate (i + 1)
      in
      let x = z.(locate 0).(g.grow).(g.gcol) in
      if not (feq (Complex.norm x) g.gmag && feq (Complex.arg x) g.gphase) then
        Alcotest.failf
          "%s: Z[%d,%d] at %.6e Hz differs from golden (|Z| %.17e vs %.17e)" name
          g.grow g.gcol g.gfreq (Complex.norm x) g.gmag)
    (read_fixture (golden_path name))

(* one concurrent client per shipped example: all requests in flight
   before any response is read *)
let run_parity ~jobs =
  with_server ~args:[ "--jobs"; string_of_int jobs ] @@ fun (addr, _) ->
  let clients =
    List.map
      (fun name ->
        let c = Serve.Client.connect addr in
        Serve.Client.send_line c (ac_request (read_file (netlist_path name)));
        (name, c))
      names
  in
  List.map
    (fun (name, c) ->
      let resp = recv_exn c in
      Serve.Client.close c;
      check_against_golden name resp;
      (name, resp))
    clients

let test_parity_jobs () =
  let r1 = run_parity ~jobs:1 in
  let r2 = run_parity ~jobs:2 in
  List.iter2
    (fun (name, a) (_, b) ->
      if not (String.equal a b) then
        Alcotest.failf "%s: response bytes differ between --jobs 1 and --jobs 2" name)
    r1 r2

let test_single_flight () =
  with_server @@ fun (addr, _) ->
  let req = ac_request (read_file (netlist_path "rc_line")) in
  let c1 = Serve.Client.connect addr and c2 = Serve.Client.connect addr in
  (* both requests in flight on the same uncached netlist before either
     response is read *)
  Serve.Client.send_line c1 req;
  Serve.Client.send_line c2 req;
  let r1 = recv_exn c1 and r2 = recv_exn c2 in
  Serve.Client.close c1;
  Serve.Client.close c2;
  Alcotest.(check string) "racing clients get identical bytes" r1 r2;
  with_client addr @@ fun c ->
  let stats = J.parse (request_exn c {|{"op":"stats"}|}) in
  Alcotest.(check int) "exactly one cache miss" 1
    (jint_exn "misses" (J.member "cache" stats));
  Alcotest.(check (option (float 0.0))) "exactly one serve.cache_miss" (Some 1.0)
    (J.to_float_opt (J.member "serve.cache_miss" (J.member "counters" stats)))

let test_same_tick_twins () =
  with_server @@ fun (addr, _) ->
  let req = ac_request (read_file (netlist_path "lc_tank")) in
  with_client addr @@ fun c ->
  (* two identical 16-point sweeps in one write arrive in one tick:
     the first sweeps its 16 points, the twin reads them back from the
     point table *)
  Serve.Client.send_line c (req ^ "\n" ^ req);
  let r1 = recv_exn c in
  let r2 = recv_exn c in
  Alcotest.(check string) "same-tick twins get identical bytes" r1 r2;
  check_against_golden "lc_tank" r1;
  let cache = J.member "cache" (J.parse (request_exn c {|{"op":"stats"}|})) in
  Alcotest.(check int) "16 points swept" 16 (jint_exn "point_misses" cache);
  Alcotest.(check int) "16 points reused" 16 (jint_exn "point_hits" cache)

(* a 1-node LC tank resonates at f = 1/2π Hz, where the exact jω
   factor meets a zero pivot: a request holding that point fails, and
   a request for another point on the same netlist, arriving in the
   same tick, must answer exactly as it does alone *)
let test_request_isolation () =
  let tank = J.to_string (J.Str "L1 n1 0 1\nC1 n1 0 1\n.port p1 n1\n.end\n") in
  let a = Printf.sprintf {|{"op":"ac","netlist":%s,"freqs":[0.15915494309189535,1.0]}|} tank in
  let b = Printf.sprintf {|{"op":"ac","netlist":%s,"freqs":[1.0]}|} tank in
  let alone =
    with_server @@ fun (addr, _) -> with_client addr @@ fun c -> request_exn c b
  in
  Alcotest.(check (option bool)) "alone: ok" (Some true) (jbool "ok" (J.parse alone));
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  Serve.Client.send_line c (a ^ "\n" ^ b);
  let ra = recv_exn c in
  let rb = recv_exn c in
  Alcotest.(check (option bool)) "resonant request: not ok" (Some false)
    (jbool "ok" (J.parse ra));
  Alcotest.(check bool) "resonant request: a user error (SRV007)" true
    (contains ra "SRV007" && contains ra "zero pivot");
  Alcotest.(check string) "neighbour: same bytes as alone" alone rb

(* ------------------------------------------------------------------ *)
(* line framing                                                        *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* the same requests answered the same, byte for byte, however the
   stream is cut: one per line, all in one write, in pieces of 1 byte
   to 40 KB (the pauses put each piece in its own read), with CRLF line
   ends, one of them split between two reads *)
let test_framing () =
  let big = Printf.sprintf {|{"id":"big","op":"ac","netlist":%s,"freqs":[1e6]}|}
      (J.to_string (J.Str (grid 40 40)))
  in
  let requests =
    [
      {|{"id":1,"op":"ping"}|};
      ac_request (read_file (netlist_path "rc_line"));
      "not json";
      "";
      big;
      {|{"id":2,"op":"ac","netlist":"R1 a 0 1\n.port p a\n.end\n","points":1}|};
      "";
      {|{"id":3,"op":"ping"}|};
    ]
  in
  Alcotest.(check bool) "a request line longer than one read" true (String.length big > 65536);
  with_server @@ fun (addr, _) ->
  let reference = with_client addr (fun c -> List.map (request_exn c) requests) in
  let rng = Random.State.make [| 24 |] in
  let pieces s =
    let rec go off acc =
      if off >= String.length s then List.rev acc
      else
        let len =
          if Random.State.int rng 4 = 0 then 1000 + Random.State.int rng 40000
          else 1 + Random.State.int rng 97
        in
        let len = min len (String.length s - off) in
        go (off + len) (String.sub s off len :: acc)
    in
    go 0 []
  in
  let check what chunks =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Serve.Protocol.sockaddr addr);
    let ic = Unix.in_channel_of_descr fd in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    List.iter
      (fun piece ->
        write_all fd piece;
        Unix.sleepf 0.0005)
      chunks;
    List.iteri
      (fun i want ->
        Alcotest.(check string) (Printf.sprintf "%s: response %d" what i) want (input_line ic))
      reference
  in
  let stream sep = String.concat "" (List.map (fun r -> r ^ sep) requests) in
  check "one write" [ stream "\n" ];
  check "small pieces" (pieces (stream "\n"));
  check "crlf" [ stream "\r\n" ];
  check "crlf in pieces" (pieces (stream "\r\n"));
  let crlf = stream "\r\n" in
  let cr = String.index crlf '\r' + 1 in
  check "cr and lf in two reads"
    [ String.sub crlf 0 cr; String.sub crlf cr (String.length crlf - cr) ]

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)

let test_sigterm_drain () =
  with_server @@ fun (addr, pid) ->
  with_client addr @@ fun c ->
  Serve.Client.send_line c (ac_request (read_file (netlist_path "rl_ladder")));
  Unix.kill pid Sys.sigterm;
  (* the in-flight request must be drained and answered — with correct
     data — before the daemon exits (exit 0 asserted by with_server) *)
  check_against_golden "rl_ladder" (recv_exn c);
  Alcotest.(check bool) "EOF after drain" true (Serve.Client.recv_line c = None)

let test_trace_bounded () =
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  for i = 1 to 200 do
    let resp = request_exn c (Printf.sprintf {|{"id":%d,"op":"ping","trace":true}|} i) in
    let j = J.parse resp in
    if jbool "ok" j <> Some true then Alcotest.failf "traced ping %d failed" i;
    if J.member "trace" j = J.Null then Alcotest.fail "traced request carried no trace";
    if not (contains resp "serve.request") then
      Alcotest.fail "trace without the serve.request span"
  done;
  let stats = J.parse (request_exn c {|{"op":"stats"}|}) in
  let ev = jint_exn "obs_events" stats in
  if ev >= 8192 then
    Alcotest.failf "obs buffers grew unbounded under traced requests: %d events" ev

(* an order far beyond the pencil size reduces to the Krylov space the
   pencil has (N = 6 on rc_line) instead of exhausting the daemon's
   memory *)
let test_huge_order () =
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  let nl = J.to_string (J.Str (read_file (netlist_path "rc_line"))) in
  let resp =
    J.parse (request_exn c (Printf.sprintf {|{"op":"reduce","netlist":%s,"order":100000}|} nl))
  in
  Alcotest.(check (option bool)) "reduce ok" (Some true) (jbool "ok" resp);
  Alcotest.(check int) "order = N" 6 (jint_exn "order" resp);
  check_ping c

(* ------------------------------------------------------------------ *)
(* the CLI and the daemon over the same operations                     *)

(* run the symor binary to completion: (exit code, stdout, stderr) *)
let run_symor args =
  let out = Filename.temp_file "symor" ".out" and err = Filename.temp_file "symor" ".err" in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote (symor_exe :: args))
      ^ " </dev/null >" ^ Filename.quote out ^ " 2>" ^ Filename.quote err)
  in
  let o = read_file out and e = read_file err in
  List.iter Sys.remove [ out; err ];
  (code, o, e)

(* a JSON finding rendered like Diagnostic.pp prints it *)
let render_finding j =
  let str k = Option.value ~default:"?" (J.to_str_opt (J.member k j)) in
  Printf.sprintf "%s %s: %s" (str "severity") (str "code") (str "message")

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* the findings under "certification:" in `symor reduce --certify`
   (the safe-order hint is indented, findings are not) *)
let rec certification_block = function
  | [] -> Alcotest.fail "reduce --certify printed no certification: block"
  | "certification:" :: rest -> List.filter (fun l -> l.[0] <> ' ') rest
  | _ :: rest -> certification_block rest

(* a user error on the CLI: exit 1, one line on stderr, no backtrace *)
let check_user_error what (code, out, err) =
  Alcotest.(check int) (what ^ ": exit 1") 1 code;
  Alcotest.(check string) (what ^ ": nothing on stdout") "" out;
  Alcotest.(check int) (what ^ ": one line on stderr") 1 (List.length (lines err));
  Alcotest.(check bool) (what ^ ": no backtrace") false (contains err "Raised")

let certify_request text ?(engine = "sympvl") order =
  Printf.sprintf {|{"op":"certify","netlist":%s,"engine":%S,"order":%d}|}
    (J.to_string (J.Str text)) engine order

(* one certify request, three front ends: `symor certify --json`, the
   certification block of `symor reduce --certify`, and the serve
   certify op must report the same findings for every engine *)
let test_certify_parity () =
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  List.iter
    (fun base ->
      let path = netlist_path base in
      let text = read_file path in
      let mna = Circuit.Mna.auto (Circuit.Parser.parse_string text) in
      List.iter
        (fun eng ->
          let name = Sympvl.Rom.name eng in
          let what = base ^ "/" ^ name in
          let run cmd flags = run_symor ([ cmd; path; "--engine"; name; "-n"; "8" ] @ flags) in
          let _, json, _ = run "certify" [ "--json" ] in
          let cli = List.map render_finding (jlist_exn (J.parse json)) in
          let _, out, _ = run "reduce" [ "--certify" ] in
          let resp = J.parse (request_exn c (certify_request text ~engine:name 8)) in
          let served = List.map render_finding (jlist_exn (J.member "findings" resp)) in
          Alcotest.(check bool) (what ^ ": certify found something") true (cli <> []);
          Alcotest.(check int) (what ^ ": one MOD010 finding") 1
            (List.length (List.filter (fun l -> contains l " MOD010: ") cli));
          Alcotest.(check (list string)) (what ^ ": reduce --certify = certify") cli
            (certification_block (lines out));
          Alcotest.(check (list string)) (what ^ ": serve certify = certify") cli served)
        (List.filter (fun e -> Sympvl.Rom.supports e mna = Ok ()) Sympvl.Rom.all))
    [ "rc_line"; "peec_coupled" ]

(* one table of out-of-range requests, each sent through both front
   ends: the CLI's one-line user error and the daemon's SRV004 finding
   carry the same message (a CLI-only request has no serve fields) *)
let test_invalid_requests () =
  let rc = netlist_path "rc_line" and rl = netlist_path "rl_ladder" in
  let lc = netlist_path "lc_tank" in
  let out = Filename.concat (Filename.get_temp_dir_name ()) "symor-unwritten.cir" in
  let cases =
    [
      ([ "reduce"; rc; "-n"; "0" ], Some {|"op":"reduce","order":0|},
        {|field "order" must be positive (got 0)|});
      ([ "certify"; rc; "--order=-5" ], Some {|"op":"certify","order":-5|},
        {|field "order" must be >= 0 (got -5)|});
      ([ "reduce"; rl; "--band"; "1e9,1e6" ], Some {|"op":"reduce","band":[1e9,1e6]|},
        {|field "band" must be [lo, hi] with 0 < lo < hi|});
      ([ "ac"; rc; "--flo"; "1e9"; "--fhi"; "1e9" ], Some {|"op":"ac","flo":1e9,"fhi":1e9|},
        {|need 0 < flo < fhi (got flo=1e+09, fhi=1e+09)|});
      ([ "ac"; rc; "--points"; "1" ], Some {|"op":"ac","points":1|},
        {|field "points" must be in [2, 100000] (got 1)|});
      ([ "sparams"; rc; "--z0"; "0" ], Some {|"op":"sparams","z0":0|},
        {|field "z0" must be positive|});
      ( [ "tran"; rc; "--observe"; "out"; "--dt"; "1e-8" ],
        Some {|"op":"tran","observe":["out"],"dt":1e-8|},
        {|need 0 < dt < tstop (got dt=1e-08, tstop=1e-08)|} );
      ([ "tran"; rc; "--observe"; "" ], Some {|"op":"tran","observe":[]|},
        {|op "tran" needs a non-empty "observe" field|});
      ( [ "reduce"; lc; "-n"; "4"; "--synth"; out ], None,
        "--synth needs an RC or RLC netlist: " ^ lc
        ^ " assembles in the RL or LC form, whose Z(s) carries a factor s" );
    ]
  in
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  List.iter
    (fun (args, fields, message) ->
      let what = String.concat " " args in
      let ((_, _, err) as run) = run_symor args in
      check_user_error ("CLI " ^ what) run;
      Alcotest.(check string) ("CLI " ^ what ^ ": message") ("symor: " ^ message ^ "\n") err;
      Option.iter
        (fun fields ->
          let text = J.to_string (J.Str (read_file (List.nth args 1))) in
          let resp =
            J.parse (request_exn c (Printf.sprintf {|{%s,"netlist":%s}|} fields text))
          in
          Alcotest.(check (option bool)) ("serve " ^ fields ^ ": not ok") (Some false)
            (jbool "ok" resp);
          let served = List.map render_finding (jlist_exn (J.member "findings" resp)) in
          Alcotest.(check (list string)) ("serve " ^ fields ^ ": one SRV004")
            [ "error SRV004: " ^ message ] served)
        fields)
    cases;
  check_ping c

(* AWE and MPVL are baselines, not engines: the CLI and the daemon
   answer them with the unknown-engine user error, which says where
   they run *)
let test_baseline_engines () =
  let message name =
    Printf.sprintf
      "unknown engine %S (have sympvl, prima, sprim, bt; the AWE and MPVL baselines run in \
       bench tabD/tabG and examples/compare_methods.ml)"
      name
  in
  let rc = netlist_path "rc_line" in
  let ((_, _, err) as run) = run_symor [ "reduce"; rc; "--engine"; "awe" ] in
  check_user_error "CLI reduce --engine awe" run;
  Alcotest.(check string) "CLI reduce --engine awe: message" ("symor: " ^ message "awe" ^ "\n") err;
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  let text = J.to_string (J.Str (read_file rc)) in
  let resp =
    J.parse
      (request_exn c (Printf.sprintf {|{"op":"reduce","engine":"mpvl","netlist":%s}|} text))
  in
  Alcotest.(check (option bool)) "serve mpvl: not ok" (Some false) (jbool "ok" resp);
  Alcotest.(check (list string)) "serve mpvl: one SRV006"
    [ "error SRV006: " ^ message "mpvl" ]
    (List.map render_finding (jlist_exn (J.member "findings" resp)));
  check_ping c

(* single-port SyMPVL models outside Foster form (an indefinite RLC
   model, an RC model at a nonzero shift) synthesize through the
   multiport congruence: at full order the netlist reproduces the
   original's Z(jω) *)
let test_synth_single_port () =
  let tmp = Filename.get_temp_dir_name () in
  List.iter
    (fun (name, text, flags) ->
      let path = Filename.concat tmp (Printf.sprintf "symor-%d-%s.cir" (Unix.getpid ()) name) in
      let out = path ^ ".synth.cir" in
      Fun.protect ~finally:(fun () -> List.iter Sys.remove (List.filter Sys.file_exists [ path; out ]))
      @@ fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      let code, _, err = run_symor ([ "reduce"; path; "--synth"; out ] @ flags) in
      Alcotest.(check int) (name ^ ": exit 0") 0 code;
      Alcotest.(check bool) (name ^ ": no backtrace") false (contains err "Raised");
      let magnitudes p =
        let _, csv, _ = run_symor [ "ac"; p; "--points"; "6" ] in
        List.map (fun l -> float_of_string (List.nth (String.split_on_char ',' l) 1))
          (List.tl (lines csv))
      in
      List.iter2
        (fun a b ->
          if Float.abs (a -. b) > 1e-5 *. Float.abs a then
            Alcotest.failf "%s: synthesized |Z| %g vs original %g" name b a)
        (magnitudes path) (magnitudes out))
    [
      ( "rlc",
        "R1 in n1 10\nL1 n1 n2 1n\nC1 n2 0 1p\nR2 n2 0 50\nC2 in 0 0.2p\n.port p in\n.end\n",
        [ "-n"; "4" ] );
      ( "rc_shifted",
        "R1 in n1 10\nC1 n1 0 1p\nR2 n1 0 100\nC2 in 0 1p\n.port p in\n.end\n",
        [ "-n"; "2"; "--shift"; "1e9" ] );
    ]

(* a stale socket with no daemon behind it: one line, exit 1, naming
   the address *)
let test_request_dead_socket () =
  let sock = Printf.sprintf "/tmp/symor-test-%d-dead.sock" (Unix.getpid ()) in
  (try Sys.remove sock with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  Fun.protect ~finally:(fun () -> Sys.remove sock) @@ fun () ->
  let ((_, _, err) as run) =
    run_symor [ "request"; "--socket"; sock; "--connect-timeout"; "0.2"; {|{"op":"ping"}|} ]
  in
  check_user_error "CLI request on a dead socket" run;
  Alcotest.(check bool) "names the address" true
    (contains err ("cannot connect to unix:" ^ sock))

(* an observe name the netlist does not have is a user error, and it
   must not intern a floating node into the cached netlist *)
let test_tran_unknown_node () =
  let path = netlist_path "rc_line" in
  check_user_error "CLI tran --observe nosuch"
    (run_symor [ "tran"; path; "--observe"; "nosuch" ]);
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  let nl = J.to_string (J.Str (read_file path)) in
  let tran =
    request_exn c (Printf.sprintf {|{"op":"tran","netlist":%s,"observe":["nosuch"]}|} nl)
  in
  Alcotest.(check (option bool)) "serve: tran not ok" (Some false) (jbool "ok" (J.parse tran));
  Alcotest.(check bool) "serve: a user error (SRV007)" true (contains tran "SRV007");
  let reduce =
    J.parse (request_exn c (Printf.sprintf {|{"op":"reduce","netlist":%s,"order":4}|} nl))
  in
  Alcotest.(check (option bool)) "serve: reduce on the same netlist still works" (Some true)
    (jbool "ok" reduce)

(* a PEEC conductor pair whose exact jω factor meets a zero pivot
   under the unpivoted sparse LDLᵀ: a user error naming the unknown,
   with no hint at --shift/--band (ac and sparams take neither), and
   the daemon answers SRV007 and keeps serving *)
let test_jw_pivot_breakdown () =
  let text =
    Circuit.Parser.to_string (Circuit.Generators.peec_partial ~conductors:2 ~segments:4 ())
  in
  let path = Filename.temp_file "peec_partial" ".cir" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  List.iter
    (fun cmd ->
      let what = "CLI " ^ cmd in
      let ((_, _, err) as run) = run_symor [ cmd; path; "--points"; "3" ] in
      check_user_error what run;
      Alcotest.(check bool) (what ^ ": names the zero pivot") true
        (contains err "zero pivot at");
      Alcotest.(check bool) (what ^ ": names the unknown") true (contains err "unknown");
      Alcotest.(check bool) (what ^ ": no flag the command lacks") false
        (contains err "--shift" || contains err "--band"))
    [ "ac"; "sparams" ];
  with_server @@ fun (addr, _) ->
  with_client addr @@ fun c ->
  let resp =
    request_exn c
      (Printf.sprintf {|{"op":"ac","netlist":%s,"points":3}|} (J.to_string (J.Str text)))
  in
  Alcotest.(check (option bool)) "serve: ac not ok" (Some false) (jbool "ok" (J.parse resp));
  Alcotest.(check bool) "serve: a user error (SRV007)" true (contains resp "SRV007");
  Alcotest.(check bool) "serve: no internal error" false (contains resp "SRV008");
  Alcotest.(check bool) "serve: no field the op lacks" false
    (contains resp "shift" || contains resp "band");
  check_ping c

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "finding JSON: one rendering" `Quick test_finding_json;
          Alcotest.test_case "framing: any cut of the stream, same bytes" `Quick test_framing;
        ] );
      ( "json",
        List.map Qtest.to_alcotest [ prop_decode_json; prop_decode_bytes; prop_render_num ] );
      ( "cache",
        [
          Alcotest.test_case "content-hash keying" `Quick test_cache_keying;
          Alcotest.test_case "lru eviction honours the bound" `Quick test_cache_lru;
          Alcotest.test_case "pinned eviction deferred to unpin" `Quick
            test_cache_deferred_eviction;
          Alcotest.test_case "doomed ghost re-keyed on re-request" `Quick
            test_cache_doomed_ghost;
          Alcotest.test_case "model memo + exact point keying" `Quick
            test_cache_model_and_points;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "junk never kills the daemon" `Quick test_fuzz_junk;
          Alcotest.test_case "semantic errors carry SRV codes" `Quick
            test_fuzz_semantic;
        ] );
      ( "parity",
        [
          Alcotest.test_case "concurrent AC matches golden at jobs 1/2" `Quick
            test_parity_jobs;
          Alcotest.test_case "single-flight on a racing uncached netlist" `Quick
            test_single_flight;
          Alcotest.test_case "same-tick twins share one sweep" `Quick
            test_same_tick_twins;
          Alcotest.test_case "a response depends only on its own request" `Quick
            test_request_isolation;
        ] );
      ( "cli",
        [
          Alcotest.test_case "certify: CLI, reduce --certify and serve agree" `Quick
            test_certify_parity;
          Alcotest.test_case "tran: unknown observe node is a user error" `Quick
            test_tran_unknown_node;
          Alcotest.test_case "ac: a jw zero pivot is a user error" `Quick
            test_jw_pivot_breakdown;
          Alcotest.test_case "invalid requests: one message, both front ends" `Quick
            test_invalid_requests;
          Alcotest.test_case "engine: the AWE and MPVL baselines point to the benches" `Quick
            test_baseline_engines;
          Alcotest.test_case "reduce --synth: single-port models outside Foster form" `Quick
            test_synth_single_port;
          Alcotest.test_case "request: a dead socket is a user error" `Quick
            test_request_dead_socket;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "sigterm drains in-flight requests" `Quick
            test_sigterm_drain;
          Alcotest.test_case "traced requests keep obs bounded" `Quick
            test_trace_bounded;
          Alcotest.test_case "a huge order does not kill the daemon" `Quick
            test_huge_order;
        ] );
    ]
