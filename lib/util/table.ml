type align = Left | Right

type t = {
  title : string option;
  headers : string array;
  aligns : align array;
  mutable rows : string array list; (* reversed *)
  mutable nrows : int;
}

let create ?title columns =
  let headers = Array.of_list (List.map fst columns) in
  let aligns = Array.of_list (List.map snd columns) in
  { title; headers; aligns; rows = []; nrows = 0 }

let add_row t cells =
  let row = Array.of_list cells in
  if Array.length row <> Array.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows;
  t.nrows <- t.nrows + 1

let row_count t = t.nrows

let pp fmt t =
  let ncols = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  let rows = List.rev t.rows in
  List.iter
    (fun row ->
      Array.iteri
        (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell))
        row)
    rows;
  let pad i s =
    let w = widths.(i) in
    let n = w - String.length s in
    if n <= 0 then s
    else
      match t.aligns.(i) with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  (match t.title with
  | Some title -> Format.fprintf fmt "== %s ==@." title
  | None -> ());
  let print_row row =
    for i = 0 to ncols - 1 do
      if i > 0 then Format.pp_print_string fmt "  ";
      Format.pp_print_string fmt (pad i row.(i))
    done;
    Format.pp_print_newline fmt ()
  in
  print_row t.headers;
  let rule = Array.map (fun w -> String.make w '-') widths in
  print_row rule;
  List.iter print_row rows

let to_string t = Format.asprintf "%a" pp t

let cell_f ?(prec = 2) v =
  if v = infinity then "inf"
  else if v = neg_infinity then "-inf"
  else if Float.is_nan v then "nan"
  else Printf.sprintf "%.*f" prec v

let cell_pct v = Printf.sprintf "%.1f%%" (100. *. v)
let cell_i = string_of_int
let cell_bytes n = Format.asprintf "%a" Units.pp_bytes n
