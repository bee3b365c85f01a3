type scheme = Row_bank_rank_col | Row_rank_bank_col | Line_interleave

type coords = { rank : int; bank : int; row : int; col : int }

let decode scheme org addr =
  let line = addr / org.Org.line_bytes in
  let lines_per_row = Org.lines_per_row org in
  let line = line mod (org.ranks * org.banks * org.rows * lines_per_row) in
  match scheme with
  | Row_bank_rank_col ->
    let col = line mod lines_per_row in
    let rest = line / lines_per_row in
    let rank = rest mod org.ranks in
    let rest = rest / org.ranks in
    let bank = rest mod org.banks in
    let row = rest / org.banks in
    { rank; bank; row; col }
  | Row_rank_bank_col ->
    let col = line mod lines_per_row in
    let rest = line / lines_per_row in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let rank = rest mod org.ranks in
    let row = rest / org.ranks in
    { rank; bank; row; col }
  | Line_interleave ->
    let rank = line mod org.ranks in
    let rest = line / org.ranks in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let col = rest mod lines_per_row in
    let row = rest / lines_per_row in
    { rank; bank; row; col }

(* Division-based packed decode: the reference arithmetic, valid on every
   [int].  Only negative addresses reach it from [decode_plan]; there
   truncating division and [mod] differ from shifts and masks. *)
let decode_packed_div scheme org addr =
  let line = addr / org.Org.line_bytes in
  let lines_per_row = Org.lines_per_row org in
  let line = line mod (org.ranks * org.banks * org.rows * lines_per_row) in
  let nbanks = org.ranks * org.banks in
  match scheme with
  | Row_bank_rank_col ->
    let rest = line / lines_per_row in
    let rank = rest mod org.ranks in
    let rest = rest / org.ranks in
    let bank = rest mod org.banks in
    let row = rest / org.banks in
    (row * nbanks) + (rank * org.banks) + bank
  | Row_rank_bank_col ->
    let rest = line / lines_per_row in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let rank = rest mod org.ranks in
    let row = rest / org.ranks in
    (row * nbanks) + (rank * org.banks) + bank
  | Line_interleave ->
    let rank = line mod org.ranks in
    let rest = line / org.ranks in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let row = rest / lines_per_row in
    (row * nbanks) + (rank * org.banks) + bank

(* Every [Org.t] dimension is a power of two ([Org.make] is the only
   constructor), so for a non-negative address each division above is a
   right shift and each [mod] a mask.  The three schemes differ only in
   where the rank and bank fields sit within the line number; the row is
   always the bits above lines-per-row, ranks and banks. *)
type plan = {
  scheme : scheme;
  org : Org.t;
  line_shift : int;
  line_mask : int; (* capacity in lines - 1 *)
  rank_shift : int;
  rank_mask : int;
  bank_shift : int;
  bank_mask : int;
  row_shift : int;
  banks_shift : int; (* log2 banks: rank's offset in the flat bank *)
  nbanks_shift : int; (* log2 (ranks * banks): row's offset when packed *)
}

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let plan scheme org =
  let col_bits = log2 (Org.lines_per_row org) in
  let rank_bits = log2 org.Org.ranks and bank_bits = log2 org.Org.banks in
  let rank_shift, bank_shift =
    match scheme with
    | Row_bank_rank_col -> (col_bits, col_bits + rank_bits)
    | Row_rank_bank_col -> (col_bits + bank_bits, col_bits)
    | Line_interleave -> (0, rank_bits)
  in
  {
    scheme;
    org;
    line_shift = log2 org.line_bytes;
    line_mask = (org.ranks * org.banks * org.rows * Org.lines_per_row org) - 1;
    rank_shift;
    rank_mask = org.ranks - 1;
    bank_shift;
    bank_mask = org.banks - 1;
    row_shift = col_bits + rank_bits + bank_bits;
    banks_shift = bank_bits;
    nbanks_shift = rank_bits + bank_bits;
  }

let[@inline] decode_plan p addr =
  if addr >= 0 then begin
    let line = (addr lsr p.line_shift) land p.line_mask in
    ((line lsr p.row_shift) lsl p.nbanks_shift)
    lor (((line lsr p.rank_shift) land p.rank_mask) lsl p.banks_shift)
    lor ((line lsr p.bank_shift) land p.bank_mask)
  end
  else decode_packed_div p.scheme p.org addr

let decode_packed scheme org addr = decode_plan (plan scheme org) addr

let scheme_name = function
  | Row_bank_rank_col -> "row:bank:rank:col"
  | Row_rank_bank_col -> "row:rank:bank:col"
  | Line_interleave -> "line-interleave"

let all_schemes = [ Row_bank_rank_col; Row_rank_bank_col; Line_interleave ]
