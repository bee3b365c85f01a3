type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let float f =
  if Float.is_finite f then Float f
  else if Float.is_nan f then Str "nan"
  else if f > 0. then Str "inf"
  else Str "-inf"

(* --- printing ----------------------------------------------------------- *)

let add_escaped buf s =
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

(* %.17g is the shortest precision guaranteed to round-trip every finite
   double through [float_of_string]. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_to_string f)
    else add buf (float f)
  | Str s -> add_escaped buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* --- parsing ------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let skip_ws p =
  while
    p.pos < String.length p.src
    &&
    match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some c' when c' = c -> p.pos <- p.pos + 1
  | Some c' -> fail "Json: expected %C at offset %d, found %C" c p.pos c'
  | None -> fail "Json: expected %C at offset %d, found end of input" c p.pos

let literal p word value =
  let n = String.length word in
  if
    p.pos + n <= String.length p.src && String.sub p.src p.pos n = word
  then begin
    p.pos <- p.pos + n;
    value
  end
  else fail "Json: invalid literal at offset %d" p.pos

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if p.pos >= String.length p.src then
      fail "Json: unterminated string at offset %d" p.pos;
    let c = p.src.[p.pos] in
    p.pos <- p.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if p.pos >= String.length p.src then
         fail "Json: unterminated escape at offset %d" p.pos;
       let e = p.src.[p.pos] in
       p.pos <- p.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if p.pos + 4 > String.length p.src then
           fail "Json: truncated \\u escape at offset %d" p.pos;
         let hex = String.sub p.src p.pos 4 in
         p.pos <- p.pos + 4;
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> fail "Json: bad \\u escape %S" hex
         in
         (* we only emit \u00xx (control characters); decode the latin-1
            range and substitute for anything beyond it *)
         if code < 0x100 then Buffer.add_char buf (Char.chr code)
         else Buffer.add_char buf '?'
       | e -> fail "Json: bad escape \\%C at offset %d" e p.pos);
      loop ()
    | c -> Buffer.add_char buf c; loop ()
  in
  loop ()

let parse_number p =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    p.pos < String.length p.src && is_num_char p.src.[p.pos]
  do
    p.pos <- p.pos + 1
  done;
  let s = String.sub p.src start (p.pos - start) in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
  then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "Json: bad number %S at offset %d" s start
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> fail "Json: bad number %S at offset %d" s start

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail "Json: unexpected end of input"
  | Some '{' ->
    expect p '{';
    skip_ws p;
    if peek p = Some '}' then begin
      expect p '}';
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws p;
        let k = parse_string p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        fields := (k, v) :: !fields;
        skip_ws p;
        match peek p with
        | Some ',' -> expect p ','; loop ()
        | _ -> expect p '}'
      in
      loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    expect p '[';
    skip_ws p;
    if peek p = Some ']' then begin
      expect p ']';
      List []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        let v = parse_value p in
        items := v :: !items;
        skip_ws p;
        match peek p with
        | Some ',' -> expect p ','; loop ()
        | _ -> expect p ']'
      in
      loop ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail "Json: unexpected %C at offset %d" c p.pos

let of_string s =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then
    fail "Json: trailing garbage at offset %d" p.pos;
  v

(* --- newline-delimited framing ------------------------------------------ *)

(* [Lines.of_string] shadows the frame parser below. *)
let parse_frame = of_string

module Lines = struct
  let default_max_frame = 4 * 1024 * 1024

  type error = { offset : int; message : string }

  type reader = {
    refill : bytes -> int -> int -> int;
    max_frame : int;
    chunk : Bytes.t;
    mutable chunk_len : int;  (* valid bytes in [chunk] *)
    mutable chunk_pos : int;  (* next unconsumed byte in [chunk] *)
    mutable offset : int;  (* absolute offset of [chunk_pos] in the stream *)
    mutable eof : bool;
  }

  let reader ?(max_frame = default_max_frame) refill =
    {
      refill;
      max_frame;
      chunk = Bytes.create 8192;
      chunk_len = 0;
      chunk_pos = 0;
      offset = 0;
      eof = false;
    }

  let of_string ?max_frame s =
    let pos = ref 0 in
    reader ?max_frame (fun buf dst len ->
        let n = min len (String.length s - !pos) in
        Bytes.blit_string s !pos buf dst n;
        pos := !pos + n;
        n)

  let offset r = r.offset

  let ensure r =
    if r.chunk_pos >= r.chunk_len && not r.eof then begin
      let n = r.refill r.chunk 0 (Bytes.length r.chunk) in
      r.chunk_len <- n;
      r.chunk_pos <- 0;
      if n = 0 then r.eof <- true
    end;
    r.chunk_pos < r.chunk_len

  (* One byte at a time out of the refill chunk; the chunk makes this cheap
     even over a raw file descriptor. *)
  let next_byte r =
    if ensure r then begin
      let c = Bytes.get r.chunk r.chunk_pos in
      r.chunk_pos <- r.chunk_pos + 1;
      r.offset <- r.offset + 1;
      Some c
    end
    else None

  (* Consume the rest of an oversized frame so the next [read] starts at a
     frame boundary; the stream stays usable after the error. *)
  let skip_to_newline r =
    let rec loop () =
      match next_byte r with
      | Some '\n' | None -> ()
      | Some _ -> loop ()
    in
    loop ()

  let read r =
    let start = r.offset in
    if not (ensure r) then None
    else begin
      let buf = Buffer.create 128 in
      let rec collect () =
        match next_byte r with
        | None -> `Truncated
        | Some '\n' -> `Line (Buffer.contents buf)
        | Some c ->
          if Buffer.length buf >= r.max_frame then begin
            skip_to_newline r;
            `Oversized
          end
          else begin
            Buffer.add_char buf c;
            collect ()
          end
      in
      match collect () with
      | `Truncated ->
        Some
          (Error
             {
               offset = start;
               message =
                 Printf.sprintf
                   "truncated frame at byte %d: %d byte(s) with no trailing \
                    newline"
                   start (r.offset - start);
             })
      | `Oversized ->
        Some
          (Error
             {
               offset = start;
               message =
                 Printf.sprintf
                   "oversized frame at byte %d: exceeds %d bytes" start
                   r.max_frame;
             })
      | `Line "" ->
        Some
          (Error
             { offset = start;
               message = Printf.sprintf "empty frame at byte %d" start;
             })
      | `Line line -> (
        match parse_frame line with
        | v -> Some (Ok v)
        | exception Parse_error msg ->
          Some
            (Error
               {
                 offset = start;
                 message = Printf.sprintf "frame at byte %d: %s" start msg;
               }))
    end

  (* The printer escapes every control character (including '\n') inside
     strings, so an encoded frame never contains a raw newline: one frame,
     one line, by construction. *)
  let encode v = to_string v ^ "\n"

  let write oc v =
    output_string oc (encode v);
    flush oc
end

(* --- accessors ---------------------------------------------------------- *)

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let member key v =
  match member_opt key v with
  | Some x -> x
  | None -> fail "Json: missing field %S" key

let to_int = function
  | Int i -> i
  | _ -> fail "Json: expected an integer"

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | Str "inf" -> Float.infinity
  | Str "-inf" -> Float.neg_infinity
  | Str "nan" -> Float.nan
  | _ -> fail "Json: expected a float"

let to_str = function
  | Str s -> s
  | _ -> fail "Json: expected a string"

let to_list = function
  | List l -> l
  | _ -> fail "Json: expected a list"

let to_obj = function
  | Obj f -> f
  | _ -> fail "Json: expected an object"
