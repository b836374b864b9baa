type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))

(* fuzzed input can nest arbitrarily deep; a hard depth limit keeps
   the recursive parser off Stack_overflow *)
let max_depth = 512

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

type cursor = { src : string; mutable pos : int }

let advance c = c.pos <- c.pos + 1

let at_end c = c.pos >= String.length c.src

(* the byte under the cursor; callers check [at_end] first *)
let cur c = String.unsafe_get c.src c.pos

let skip_ws c =
  let n = String.length c.src in
  while
    c.pos < n
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  if at_end c then fail c.pos (Printf.sprintf "expected %C, got end of input" ch)
  else if cur c = ch then advance c
  else fail c.pos (Printf.sprintf "expected %C, got %C" ch (cur c))

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d = if at_end c then -1 else hex_digit (cur c) in
    if d < 0 then fail c.pos "expected 4 hex digits in \\u escape";
    v := (!v * 16) + d;
    advance c
  done;
  !v

let utf8_length u = if u < 0x80 then 1 else if u < 0x800 then 2 else if u < 0x10000 then 3 else 4

(* UTF-8 encode one scalar value (BMP escapes and surrogate pairs) at
   [w]; returns the next write offset *)
let put_utf8 out w u =
  let put k byte = Bytes.set out (w + k) (Char.chr byte) in
  if u < 0x80 then put 0 u
  else if u < 0x800 then begin
    put 0 (0xC0 lor (u lsr 6));
    put 1 (0x80 lor (u land 0x3F))
  end
  else if u < 0x10000 then begin
    put 0 (0xE0 lor (u lsr 12));
    put 1 (0x80 lor ((u lsr 6) land 0x3F));
    put 2 (0x80 lor (u land 0x3F))
  end
  else begin
    put 0 (0xF0 lor (u lsr 18));
    put 1 (0x80 lor ((u lsr 12) land 0x3F));
    put 2 (0x80 lor ((u lsr 6) land 0x3F));
    put 3 (0x80 lor (u land 0x3F))
  end;
  w + utf8_length u

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* some byte of the word [x] is zero (the classic bit trick: exact as a
   yes/no answer, which is all the scan below asks) *)
let[@inline] has_zero x =
  Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
    0x8080808080808080L
  <> 0L

(* some byte of [x] is below 0x20 *)
let[@inline] has_control x =
  Int64.logand (Int64.logand (Int64.sub x 0x2020202020202020L) (Int64.lognot x))
    0x8080808080808080L
  <> 0L

(* end of the run of plain bytes (no quote, backslash or control
   character) that starts at [i]: eight bytes a step while a whole word
   is plain, then byte by byte *)
let run_end src i =
  let n = String.length src in
  let i = ref i in
  while
    !i + 8 <= n
    &&
    let x = get64u src !i in
    not
      (has_zero (Int64.logxor x 0x2222222222222222L)
      || has_zero (Int64.logxor x 0x5C5C5C5C5C5C5C5CL)
      || has_control x)
  do
    i := !i + 8
  done;
  while
    !i < n
    &&
    let ch = String.unsafe_get src !i in
    ch <> '"' && ch <> '\\' && Char.code ch >= 0x20
  do
    incr i
  done;
  !i

(* decoded length of the string body that starts at [i]: exact when the
   body is well formed; a malformed body fails in [parse_string] before
   it could write past this length *)
let decoded_length src i =
  let n = String.length src in
  let hex_at j =
    if j + 4 > n then -1
    else
      let d k = hex_digit src.[j + k] in
      if d 0 < 0 || d 1 < 0 || d 2 < 0 || d 3 < 0 then -1
      else (((((d 0 * 16) + d 1) * 16) + d 2) * 16) + d 3
  in
  let rec go i len =
    if i >= n then len
    else
      match src.[i] with
      | '"' -> len
      | '\\' when i + 1 < n && src.[i + 1] = 'u' ->
        let u = hex_at (i + 2) in
        if u >= 0xD800 && u <= 0xDBFF then go (i + 12) (len + 4)
        else go (i + 6) (len + utf8_length (max u 0))
      | '\\' -> go (i + 2) (len + 1)
      | _ ->
        let e = max (run_end src i) (i + 1) in
        go e (len + e - i)
  in
  go i 0

(* a body without escapes is one [String.sub]; otherwise maximal plain
   runs are blitted into bytes of the exact decoded length *)
let parse_string c =
  expect c '"';
  let src = c.src in
  let n = String.length src in
  let start = c.pos in
  let stop = run_end src start in
  if stop < n && src.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let out = Bytes.create (decoded_length src start) in
    let w = ref 0 in
    let put ch =
      Bytes.set out !w ch;
      incr w
    in
    let rec go () =
      let s = c.pos in
      let e = run_end src s in
      Bytes.blit_string src s out !w (e - s);
      w := !w + (e - s);
      c.pos <- e;
      if e >= n then fail c.pos "unterminated string";
      match src.[e] with
      | '"' -> advance c
      | '\\' ->
        advance c;
        if at_end c then fail c.pos "bad escape";
        (match cur c with
        | '"' -> advance c; put '"'
        | '\\' -> advance c; put '\\'
        | '/' -> advance c; put '/'
        | 'b' -> advance c; put '\b'
        | 'f' -> advance c; put '\012'
        | 'n' -> advance c; put '\n'
        | 'r' -> advance c; put '\r'
        | 't' -> advance c; put '\t'
        | 'u' ->
          advance c;
          let u = hex4 c in
          if u >= 0xD800 && u <= 0xDBFF then begin
            (* high surrogate: require a low surrogate escape next *)
            if c.pos + 1 < n && src.[c.pos] = '\\' && src.[c.pos + 1] = 'u' then begin
              c.pos <- c.pos + 2;
              let lo = hex4 c in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                w := put_utf8 out !w (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
              else fail c.pos "unpaired surrogate"
            end
            else fail c.pos "unpaired surrogate"
          end
          else if u >= 0xDC00 && u <= 0xDFFF then fail c.pos "unpaired surrogate"
          else w := put_utf8 out !w u
        | _ -> fail c.pos "bad escape");
        go ()
      | _ -> fail c.pos "control character in string"
    in
    go ();
    if !w = Bytes.length out then Bytes.unsafe_to_string out else Bytes.sub_string out 0 !w
  end

let parse_number c =
  let start = c.pos in
  let n = String.length c.src in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < n && is_num_char c.src.[c.pos] do
    advance c
  done;
  if c.pos = start then fail c.pos "expected a number";
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> Num v
  | _ -> fail start (Printf.sprintf "bad number %S" s)

let rec parse_value c depth =
  if depth > max_depth then fail c.pos "nesting too deep";
  skip_ws c;
  if at_end c then fail c.pos "unexpected end of input";
  match cur c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> Str (parse_string c)
  | '[' ->
    advance c;
    skip_ws c;
    if (not (at_end c)) && cur c = ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value c (depth + 1) :: !items;
        skip_ws c;
        match if at_end c then ' ' else cur c with
        | ',' -> advance c; go ()
        | ']' -> advance c
        | _ -> fail c.pos "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | '{' ->
    advance c;
    skip_ws c;
    if (not (at_end c)) && cur c = '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        fields := (k, v) :: !fields;
        skip_ws c;
        match if at_end c then ' ' else cur c with
        | ',' -> advance c; go ()
        | '}' -> advance c
        | _ -> fail c.pos "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | '0' .. '9' | '-' -> parse_number c
  | ch -> fail c.pos (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage after value";
  v

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)

(* the C primitive behind [Printf]'s [%g]: for a finite double the same
   bytes as [Printf.sprintf "%.17g"], without the format interpreter *)
external format_float : string -> float -> string = "caml_format_float"

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"'

let rec render b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num v ->
    if Float.is_finite v then Buffer.add_string b (format_float "%.17g" v)
    else Buffer.add_string b "null"
  | Str s -> escape b s
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        render b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape b k;
        Buffer.add_char b ':';
        render b v)
      fields;
    Buffer.add_char b '}'
  | Raw s ->
    (* pre-rendered payloads (the Chrome trace) may contain newlines;
       strip them so the value stays one protocol line *)
    String.iter (fun ch -> if ch <> '\n' && ch <> '\r' then Buffer.add_char b ch) s

let to_string v =
  let b = Buffer.create 256 in
  render b v;
  Buffer.contents b

let to_line v =
  let b = Buffer.create 256 in
  render b v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let to_bool_opt = function Bool v -> Some v | _ -> None

let to_float_opt = function Num v -> Some v | _ -> None

let to_int_opt = function
  | Num v when Float.is_integer v && Float.abs v <= 1e15 -> Some (int_of_float v)
  | _ -> None

let to_str_opt = function Str s -> Some s | _ -> None

let to_list_opt = function List items -> Some items | _ -> None
