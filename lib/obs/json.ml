type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f then "0"
  else if f = Float.infinity then "1e308"
  else if f = Float.neg_infinity then "-1e308"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* the shorter of the two that reads back as the same float; 17
       significant digits always do *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec print ~indent level buf v =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        print ~indent (level + 1) buf x)
      items;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        escape_to buf k;
        Buffer.add_char buf ':';
        if indent then Buffer.add_char buf ' ';
        print ~indent (level + 1) buf x)
      fields;
    nl level;
    Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 4096 in
  print ~indent 0 buf v;
  Buffer.contents buf

let to_string v = render ~indent:false v
let to_string_pretty v = render ~indent:true v

(* ---- parsing ---- *)

exception Fail of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let utf8_add buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               (match int_of_string_opt ("0x" ^ hex) with
                | Some u ->
                  pos := !pos + 4;
                  utf8_add buf u
                | None -> fail "bad \\u escape")
             | _ -> fail "unknown escape");
          go ()
        | c when Char.code c < 0x20 -> fail "control character in string"
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
    in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else (
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

(* ---- accessors ---- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | Null | Bool _ | String _ | List _ | Obj _ -> None

let to_bool = function
  | Bool b -> Some b
  | Null | Int _ | Float _ | String _ | List _ | Obj _ -> None

let to_list = function
  | List l -> Some l
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> None

let to_str = function
  | String s -> Some s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> None

(* ---- decoding with errors ---- *)

let ( let* ) = Result.bind

let field name j =
  match member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let decode name f j =
  let* v = field name j in
  f v

let typed what conv name j =
  let* v = field name j in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S is not %s" name what)

let as_str = typed "a string" to_str
let as_int = typed "an integer" to_int
let as_float = typed "a number" to_float
let as_bool = typed "a boolean" to_bool
let as_list = typed "a list" to_list

let nullable conv = function
  | Null -> Some None
  | v -> Option.map Option.some (conv v)

let as_opt_str = typed "a string or null" (nullable to_str)
let as_opt_int = typed "an integer or null" (nullable to_int)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let as_str_list name j =
  let* l = as_list name j in
  map_result
    (fun v ->
      Option.to_result ~none:(Printf.sprintf "field %S holds a non-string" name)
        (to_str v))
    l
