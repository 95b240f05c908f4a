type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if Float.is_nan f || Float.abs f = infinity then "null"
  else begin
    (* 12 digits where they round-trip, else 17: the printer is lossless. *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* Keep floats recognisable as floats on re-parse. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  let pad level =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ')
    end
  in
  let rec go level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_str f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          go (level + 1) item)
        items;
      pad level;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf (if indent then "\": " else "\":");
          go (level + 1) item)
        members;
      pad level;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    match peek () with
    | Some c ->
      incr pos;
      c
    | None -> fail "unexpected end of input"
  in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    let g = next () in
    if g <> c then fail (Printf.sprintf "expected %C, got %C" c g)
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match next () with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    !v
  in
  let add_utf8 buf cp =
    (* BMP only (no surrogate pairing) — enough for our own escapes. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' -> add_utf8 buf (hex4 ())
         | c -> fail (Printf.sprintf "bad escape \\%C" c));
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    let lit = String.sub s start (!pos - start) in
    let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit in
    if floaty then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail ("bad number " ^ lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail ("bad number " ^ lit))
  in
  let literal lit v =
    String.iter (fun c -> if next () <> c then fail ("expected " ^ lit)) lit;
    v
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let rec members acc =
        ws ();
        let k = string_lit () in
        ws ();
        expect ':';
        let v = value () in
        ws ();
        match next () with
        | ',' -> members ((k, v) :: acc)
        | '}' -> Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}' in object"
      in
      members []
    end
  and arr () =
    expect '[';
    ws ();
    if peek () = Some ']' then begin
      incr pos;
      List []
    end
    else begin
      let rec elements acc =
        let v = value () in
        ws ();
        match next () with
        | ',' -> elements (v :: acc)
        | ']' -> List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' in array"
      in
      elements []
    end
  in
  match
    let v = value () in
    ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "JSON error at byte %d: %s" at msg)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
