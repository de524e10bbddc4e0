(* The one JSON layer: batch records, serve replies, golden reports,
   metrics, ledger lines and bench documents all print through
   [to_string] and read through [parse].  Numbers are printed with
   %.17g so a parse of the output reproduces the same floats — the
   golden-diff engine depends on that round-trip to distinguish
   "identical" from "drifted". *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------- printing ---------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no spelling for nan or infinity: print them as null so
   every document stays parseable. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(indent = 0) v =
  let b = Buffer.create 4096 in
  let pad depth = Buffer.add_string b (String.make (indent * depth) ' ') in
  let nl () = if indent > 0 then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Arr vs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i v ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) v)
        vs;
      nl ();
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          go (depth + 1) v)
        kvs;
      nl ();
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  if indent > 0 then Buffer.add_char b '\n';
  Buffer.contents b

(* ---------- parsing ---------- *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* the four hex digits of a \u escape starting at offset [i] *)
  let hex4 i =
    if i + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for k = i to i + 3 do
      v := (!v lsl 4) lor digit s.[k]
    done;
    !v
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
          let u = hex4 (!pos + 1) in
          pos := !pos + 4;
          let is_low c = c >= 0xDC00 && c <= 0xDFFF in
          let cp =
            if u >= 0xD800 && u <= 0xDBFF then begin
              (* a high surrogate must be followed by an escaped low one *)
              if not (!pos + 2 < n && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u')
              then fail "lone surrogate";
              let lo = hex4 (!pos + 3) in
              if not (is_low lo) then fail "lone surrogate";
              pos := !pos + 6;
              0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if is_low u then fail "lone surrogate"
            else u
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int cp)
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else Obj (members [])
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else Arr (elements [])
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
  and members acc =
    skip_ws ();
    let key = string_body () in
    skip_ws ();
    expect ':';
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' ->
      advance ();
      members ((key, v) :: acc)
    | Some '}' ->
      advance ();
      List.rev ((key, v) :: acc)
    | _ -> fail "expected , or } in object"
  and elements acc =
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' ->
      advance ();
      elements (v :: acc)
    | Some ']' ->
      advance ();
      List.rev (v :: acc)
    | _ -> fail "expected , or ] in array"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* ---------- accessors ---------- *)

let mem key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let get key j =
  match mem key j with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing key %S" key))

let str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let num = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let bool = function
  | Bool b -> b
  | _ -> raise (Parse_error "expected a boolean")

let arr = function
  | Arr vs -> vs
  | _ -> raise (Parse_error "expected an array")
