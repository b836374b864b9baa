(* Reference oracle for [Serve.Json.parse]: the recursive-descent
   decoder that copies a string byte by byte through an option-returning
   cursor. It builds the same [Serve.Json.t] values and raises the same
   [Serve.Json.Parse_error] text (message and byte offset); [test_serve]
   checks the library decoder against it on random bytes and random
   JSON. *)

open Serve.Json

let fail pos msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))

(* fuzzed input can nest arbitrarily deep; a hard depth limit keeps
   the recursive parser off Stack_overflow *)
let max_depth = 512

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let n = String.length c.src in
  while
    c.pos < n
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c.pos (Printf.sprintf "expected %C, got %C" ch x)
  | None -> fail c.pos (Printf.sprintf "expected %C, got end of input" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

(* UTF-8 encode one scalar value (BMP escapes and surrogate pairs) *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ('0' .. '9' as ch) -> v := (!v * 16) + (Char.code ch - Char.code '0')
    | Some ('a' .. 'f' as ch) -> v := (!v * 16) + (Char.code ch - Char.code 'a' + 10)
    | Some ('A' .. 'F' as ch) -> v := (!v * 16) + (Char.code ch - Char.code 'A' + 10)
    | _ -> fail c.pos "expected 4 hex digits in \\u escape");
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> advance c; Buffer.add_char b '"'
      | Some '\\' -> advance c; Buffer.add_char b '\\'
      | Some '/' -> advance c; Buffer.add_char b '/'
      | Some 'b' -> advance c; Buffer.add_char b '\b'
      | Some 'f' -> advance c; Buffer.add_char b '\012'
      | Some 'n' -> advance c; Buffer.add_char b '\n'
      | Some 'r' -> advance c; Buffer.add_char b '\r'
      | Some 't' -> advance c; Buffer.add_char b '\t'
      | Some 'u' ->
        advance c;
        let u = hex4 c in
        if u >= 0xD800 && u <= 0xDBFF then begin
          (* high surrogate: require a low surrogate escape next *)
          match (peek c, c.pos + 1 < String.length c.src) with
          | Some '\\', true when c.src.[c.pos + 1] = 'u' ->
            advance c;
            advance c;
            let lo = hex4 c in
            if lo >= 0xDC00 && lo <= 0xDFFF then
              add_utf8 b (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
            else fail c.pos "unpaired surrogate"
          | _ -> fail c.pos "unpaired surrogate"
        end
        else if u >= 0xDC00 && u <= 0xDFFF then fail c.pos "unpaired surrogate"
        else add_utf8 b u
      | _ -> fail c.pos "bad escape");
      go ()
    | Some ch when Char.code ch < 0x20 -> fail c.pos "control character in string"
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

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
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value c (depth + 1) :: !items;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; go ()
        | Some ']' -> advance c
        | _ -> fail c.pos "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
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
        match peek c with
        | Some ',' -> advance c; go ()
        | Some '}' -> advance c
        | _ -> fail c.pos "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage after value";
  v
