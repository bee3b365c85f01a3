module Org = Nvsc_dramsim.Org
module AM = Nvsc_dramsim.Address_mapping

let test_org_defaults () =
  let o = Org.paper in
  Alcotest.(check int) "capacity 2GB" (2 * 1024 * 1024 * 1024)
    (Org.capacity_bytes o);
  Alcotest.(check int) "ranks" 16 o.Org.ranks;
  Alcotest.(check int) "banks" 16 o.Org.banks;
  Alcotest.(check int) "row bytes" 8192 (Org.row_bytes o);
  Alcotest.(check int) "lines per row" 128 (Org.lines_per_row o);
  Alcotest.(check int) "total banks" 256 (Org.total_banks o)

let test_org_validation () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Org.make: ranks must be a power of two") (fun () ->
      ignore (Org.make ~ranks:3 ()));
  Alcotest.check_raises "row too small"
    (Invalid_argument "Org.make: a row must hold at least one line") (fun () ->
      ignore (Org.make ~cols:4 ~bus_width_bits:64 ~line_bytes:64 ()))

let coords_in_range (o : Org.t) (c : AM.coords) =
  c.rank >= 0 && c.rank < o.ranks && c.bank >= 0 && c.bank < o.banks
  && c.row >= 0 && c.row < o.rows && c.col >= 0
  && c.col < Org.lines_per_row o

let range_prop scheme =
  QCheck.Test.make
    ~name:(Printf.sprintf "coords in range: %s" (AM.scheme_name scheme))
    ~count:500
    QCheck.(int_range 0 max_int)
    (fun addr -> coords_in_range Org.paper (AM.decode scheme Org.paper addr))

let bijective_prop scheme =
  (* distinct line addresses within capacity decode to distinct coords *)
  QCheck.Test.make
    ~name:(Printf.sprintf "injective within capacity: %s" (AM.scheme_name scheme))
    ~count:200
    QCheck.(
      pair
        (int_range 0 ((2 * 1024 * 1024 * 1024 / 64) - 1))
        (int_range 0 ((2 * 1024 * 1024 * 1024 / 64) - 1)))
    (fun (l1, l2) ->
      let c1 = AM.decode scheme Org.paper (l1 * 64) in
      let c2 = AM.decode scheme Org.paper (l2 * 64) in
      l1 = l2 || c1 <> c2)

let test_sequential_locality () =
  (* under the default scheme, consecutive lines share a row until the row
     boundary (128 lines) *)
  let o = Org.paper in
  let c0 = AM.decode AM.Row_bank_rank_col o 0 in
  let c1 = AM.decode AM.Row_bank_rank_col o 64 in
  let c127 = AM.decode AM.Row_bank_rank_col o (127 * 64) in
  let c128 = AM.decode AM.Row_bank_rank_col o (128 * 64) in
  Alcotest.(check bool) "same row/bank/rank" true
    (c0.AM.rank = c1.AM.rank && c0.AM.bank = c1.AM.bank && c0.AM.row = c1.AM.row);
  Alcotest.(check int) "columns advance" 1 c1.AM.col;
  Alcotest.(check bool) "row end" true (c127.AM.col = 127);
  Alcotest.(check bool) "next row chunk switches rank" true
    (c128.AM.rank <> c0.AM.rank || c128.AM.bank <> c0.AM.bank
    || c128.AM.row <> c0.AM.row)

let test_line_interleave_spreads () =
  let o = Org.paper in
  let c0 = AM.decode AM.Line_interleave o 0 in
  let c1 = AM.decode AM.Line_interleave o 64 in
  Alcotest.(check bool) "consecutive lines change rank" true
    (c1.AM.rank = (c0.AM.rank + 1) mod o.Org.ranks)

let test_wraparound () =
  (* addresses beyond capacity wrap rather than crash *)
  let o = Org.paper in
  let c = AM.decode AM.Row_bank_rank_col o (Org.capacity_bytes o + 64) in
  Alcotest.(check bool) "wrapped in range" true (coords_in_range o c)

(* The controller's shift-and-mask decode against the division-based
   [decode], repacked: random power-of-two orgs, every scheme, and
   addresses that are negative, beyond capacity or near [max_int] (where
   the division arithmetic still applies to negatives). *)
let gen_org =
  QCheck.Gen.(
    let pow2 k = map (fun e -> 1 lsl e) (int_range 0 k) in
    let* ranks = pow2 4 and* banks = pow2 5 and* rows = pow2 12 in
    let* line_bytes = oneofl [ 16; 32; 64; 128 ] in
    let* bus_width_bits = oneofl [ 16; 32; 64; 128 ] in
    let* lines_per_row = pow2 7 in
    let cols = lines_per_row * line_bytes * 8 / bus_width_bits in
    return (Org.make ~ranks ~banks ~rows ~cols ~bus_width_bits ~line_bytes ()))

let gen_addr (o : Org.t) =
  QCheck.Gen.(
    let cap = Org.capacity_bytes o in
    oneof
      [
        int_range 0 ((4 * cap) - 1);
        int_range (-4 * cap) (-1);
        int_range (max_int - (4 * cap)) max_int;
        int_range min_int (min_int + (4 * cap));
        int;
      ])

let packed_decode_prop =
  QCheck.Test.make ~name:"decode_packed equals packed decode" ~count:2000
    (QCheck.make
       ~print:(fun (o, scheme, addr) ->
         Format.asprintf "%a; %s; %d" Org.pp o (AM.scheme_name scheme) addr)
       QCheck.Gen.(
         let* o = gen_org in
         let* scheme = oneofl AM.all_schemes in
         let* addr = gen_addr o in
         return (o, scheme, addr)))
    (fun (o, scheme, addr) ->
      let c = AM.decode scheme o addr in
      AM.decode_packed scheme o addr
      = (c.row * Org.total_banks o) + (c.rank * o.banks) + c.bank)

let suite =
  [
    Alcotest.test_case "org defaults (Table III)" `Quick test_org_defaults;
    Alcotest.test_case "org validation" `Quick test_org_validation;
    QCheck_alcotest.to_alcotest (range_prop AM.Row_bank_rank_col);
    QCheck_alcotest.to_alcotest (range_prop AM.Row_rank_bank_col);
    QCheck_alcotest.to_alcotest (range_prop AM.Line_interleave);
    QCheck_alcotest.to_alcotest (bijective_prop AM.Row_bank_rank_col);
    QCheck_alcotest.to_alcotest (bijective_prop AM.Line_interleave);
    Alcotest.test_case "sequential row locality" `Quick test_sequential_locality;
    Alcotest.test_case "line interleave spreads" `Quick
      test_line_interleave_spreads;
    Alcotest.test_case "address wraparound" `Quick test_wraparound;
    QCheck_alcotest.to_alcotest packed_decode_prop;
  ]
