exception Error of string

let err path fmt =
  Printf.ksprintf (fun s -> raise (Error ("Trace_codec: " ^ path ^ ": " ^ s))) fmt

let magic = "NVSCAVT1"
let eof_magic = "NVSCAVTE"
let version = 2
let min_version = 1

type meta = {
  app : string;
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  scale : float;
  iterations : int;
  batch_capacity : int;
}

let fingerprint m =
  Printf.sprintf "%s|scale=%g|iterations=%d" m.app m.scale m.iterations

type summary = {
  refs : int;
  reads : int;
  writes : int;
  chunks : int;
  bytes : int;
  digest : string;
}

(* Registry counters shared by every writer/reader in the process: the
   profile summary reports record/replay volume across a whole sweep. *)
let m_record_refs = Nvsc_obs.Metrics.counter "nvt.record.refs"
let m_record_bytes = Nvsc_obs.Metrics.counter "nvt.record.bytes"
let m_replay_refs = Nvsc_obs.Metrics.counter "nvt.replay.refs"
let m_replay_chunks = Nvsc_obs.Metrics.counter "nvt.replay.chunks"

(* --- primitive encoders ------------------------------------------------- *)

(* Varints are the per-reference cost of both recording and replaying, so
   their primitives are top-level functions that take all their state as
   arguments: the build has no flambda, and a local [let rec] capturing
   the buffer or decoder would allocate a closure on every call. *)
let rec put_uvarint buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    put_uvarint buf (n lsr 7)
  end

(* unsigned LEB128; negative values must go through [zigzag] first *)
let[@inline] put_varint buf n =
  if n < 0 then invalid_arg "Trace_codec: negative varint";
  put_uvarint buf n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let put_str buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let phase_code = function
  | Mem_object.Pre -> 0
  | Mem_object.Post -> 1
  | Mem_object.Main i -> 1 + i

let phase_of_code path = function
  | 0 -> Mem_object.Pre
  | 1 -> Mem_object.Post
  | n when n >= 2 -> Mem_object.Main (n - 1)
  | n -> err path "corrupt phase code %d" n

let kind_code = function
  | Layout.Global -> 0
  | Layout.Heap -> 1
  | Layout.Stack -> 2

let kind_of_code path = function
  | 0 -> Layout.Global
  | 1 -> Layout.Heap
  | 2 -> Layout.Stack
  | n -> err path "corrupt object kind %d" n

let put_obj buf (o : Mem_object.t) =
  put_varint buf o.id;
  put_str buf o.name;
  Buffer.add_char buf (Char.chr (kind_code o.kind));
  put_varint buf o.base;
  put_varint buf o.size;
  put_str buf o.signature;
  put_varint buf (List.length o.callstack);
  List.iter (put_str buf) o.callstack;
  put_varint buf (phase_code o.alloc_phase);
  Buffer.add_char buf (if o.live then '\001' else '\000')

let put_meta buf (m : meta) ~chunk_capacity =
  put_str buf m.app;
  put_str buf m.description;
  put_str buf m.input_description;
  put_f64 buf m.paper_footprint_mb;
  put_f64 buf m.scale;
  put_varint buf m.iterations;
  put_varint buf m.batch_capacity;
  put_varint buf chunk_capacity

(* --- primitive decoders ------------------------------------------------- *)

(* Decoding works over bytes [0, lim) of an in-memory buffer (one chunk /
   header / trailer payload at a time — each bounded by the chunk size, not
   the trace length); any overrun is a truncation of [what] in [path]. *)
type dec = {
  b : Bytes.t;
  lim : int;
  mutable pos : int;
  d_path : string;
  what : string;
}

let dec b ~lim ~path ~what = { b; lim; pos = 0; d_path = path; what }

let dec_string s ~path ~what =
  dec (Bytes.unsafe_of_string s) ~lim:(String.length s) ~path ~what

let get_byte d =
  if d.pos >= d.lim then err d.d_path "truncated %s" d.what;
  let b = Char.code (Bytes.unsafe_get d.b d.pos) in
  d.pos <- d.pos + 1;
  b

(* Every varint the writer emits is non-negative (zigzag first for signed
   deltas), so a tenth byte or a value that lands on the sign bit is
   damage — and rejecting it here covers every length and count field.
   [varint_tail] continues a varint whose first byte had the continuation
   bit set: [pos] is the next byte, [acc] the value so far.  It is
   top-level and closure-free (see [put_uvarint]). *)
let rec varint_tail d pos shift acc =
  if pos >= d.lim then err d.d_path "truncated %s" d.what;
  let b = Char.code (Bytes.unsafe_get d.b pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then begin
    d.pos <- pos + 1;
    if acc < 0 then err d.d_path "corrupt %s (varint out of range)" d.what;
    acc
  end
  else if shift >= 56 then err d.d_path "corrupt %s (varint out of range)" d.what
  else varint_tail d (pos + 1) (shift + 7) acc

(* one-byte varints (most record fields) take the inlined fast path *)
let[@inline] get_varint d =
  let pos = d.pos in
  if pos >= d.lim then err d.d_path "truncated %s" d.what;
  let b = Char.code (Bytes.unsafe_get d.b pos) in
  if b < 0x80 then begin
    d.pos <- pos + 1;
    b
  end
  else varint_tail d (pos + 1) 7 (b land 0x7f)

let get_raw d n =
  if n > d.lim - d.pos then err d.d_path "truncated %s" d.what;
  let s = Bytes.sub_string d.b d.pos n in
  d.pos <- d.pos + n;
  s

let get_str d = get_raw d (get_varint d)

let get_f64 d =
  let rec go i acc =
    if i >= 8 then acc
    else go (i + 1) Int64.(logor acc (shift_left (of_int (get_byte d)) (8 * i)))
  in
  Int64.float_of_bits (go 0 0L)

let get_obj d =
  let id = get_varint d in
  let name = get_str d in
  let kind = kind_of_code d.d_path (get_byte d) in
  let base = get_varint d in
  let size = get_varint d in
  if size = 0 then err d.d_path "corrupt %s (empty object %d)" d.what id;
  let signature = get_str d in
  let ncall = get_varint d in
  let callstack = List.init ncall (fun _ -> get_str d) in
  let alloc_phase = phase_of_code d.d_path (get_varint d) in
  let live = get_byte d <> 0 in
  let o =
    Mem_object.make ~id ~name ~kind ~base ~size ~signature ~callstack
      ~alloc_phase ()
  in
  o.Mem_object.live <- live;
  o

let get_meta d =
  let app = get_str d in
  let description = get_str d in
  let input_description = get_str d in
  let paper_footprint_mb = get_f64 d in
  let scale = get_f64 d in
  let iterations = get_varint d in
  let batch_capacity = get_varint d in
  let chunk_capacity = get_varint d in
  ( {
      app;
      description;
      input_description;
      paper_footprint_mb;
      scale;
      iterations;
      batch_capacity;
    },
    chunk_capacity )

(* Fixed-width channel reads (the only decoding not done over a payload
   string: the file skeleton around the digested payloads). *)
let really_read ic path n =
  let b = Bytes.create n in
  (try really_input ic b 0 n with End_of_file -> err path "truncated file");
  Bytes.unsafe_to_string b

let read_u16le ic path =
  let s = really_read ic path 2 in
  Char.code s.[0] lor (Char.code s.[1] lsl 8)

let read_u32le ic path =
  let s = really_read ic path 4 in
  Char.code s.[0]
  lor (Char.code s.[1] lsl 8)
  lor (Char.code s.[2] lsl 16)
  lor (Char.code s.[3] lsl 24)

(* All fixed-width fields are explicitly little-endian, independent of
   the host: the on-disk format must not change with the endianness or
   word size of the recording machine (the golden-fixture test pins the
   exact bytes). *)
let u16le_bytes n =
  let b = Bytes.create 2 in
  Bytes.set_uint8 b 0 (n land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xff);
  Bytes.unsafe_to_string b

let u32le_bytes n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (n land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 3 ((n lsr 24) land 0xff);
  Bytes.unsafe_to_string b

(* --- token tags --------------------------------------------------------- *)

let tag_phase = 0
let tag_instr = 1
let tag_refs = 2
let tag_persist = 3 (* v2+ only *)

(* persist sub-codes (the byte after a [tag_persist]) *)
let psub_epoch_begin = 0
let psub_epoch_commit = 1
let psub_flush = 2
let psub_fence = 3
let psub_declare = 4

type on_refs = Sink.Batch.t -> obj_ids:int array -> first:int -> n:int -> unit

(* --- writer ------------------------------------------------------------- *)

module Writer = struct
  type t = {
    w_path : string;
    oc : out_channel;
    w_version : int;
    chunk_capacity : int;
    resolve : int -> Mem_object.t option;
    mutable seen : Bytes.t;
        (* byte [id] is nonzero once object [id] is tabled in some chunk:
           ids are dense allocation-order ints, so a flat map beats a
           hash probe per reference *)
    obj_buf : Buffer.t;  (* this chunk's attribution table *)
    mutable obj_count : int;
    tok_buf : Buffer.t;  (* this chunk's sealed tokens *)
    run_buf : Buffer.t;  (* the open REFS run *)
    mutable run_count : int;
    mutable prev_addr : int;
    mutable prev_id : int;
    mutable chunk_refs : int;
    mutable index_rev : (int * int * string) list;  (* offset, refs, md5 *)
    mutable t_refs : int;
    mutable t_reads : int;
    mutable t_writes : int;
    header_md5 : string;
    mutable closed : bool;
  }

  let create ?(version = version) ?(chunk_capacity = Sink.default_capacity)
      ?(resolve = fun _ -> None) ~path ~meta () =
    if chunk_capacity <= 0 then
      invalid_arg "Trace_codec.Writer.create: chunk_capacity";
    if version < min_version || version > 2 then
      invalid_arg "Trace_codec.Writer.create: version";
    let oc = open_out_bin path in
    let hdr = Buffer.create 256 in
    put_meta hdr meta ~chunk_capacity;
    let header_payload = Buffer.contents hdr in
    output_string oc magic;
    output_string oc (u16le_bytes version);
    output_string oc (u32le_bytes (String.length header_payload));
    output_string oc header_payload;
    {
      w_path = path;
      oc;
      w_version = version;
      chunk_capacity;
      resolve;
      seen = Bytes.make 256 '\000';
      obj_buf = Buffer.create 1024;
      obj_count = 0;
      tok_buf = Buffer.create (chunk_capacity * 4);
      run_buf = Buffer.create (chunk_capacity * 4);
      run_count = 0;
      prev_addr = 0;
      prev_id = 0;
      chunk_refs = 0;
      index_rev = [];
      t_refs = 0;
      t_reads = 0;
      t_writes = 0;
      header_md5 = Digest.string header_payload;
      closed = false;
    }

  let flush_run w =
    if w.run_count > 0 then begin
      Buffer.add_char w.tok_buf (Char.chr tag_refs);
      put_varint w.tok_buf w.run_count;
      Buffer.add_buffer w.tok_buf w.run_buf;
      Buffer.clear w.run_buf;
      w.run_count <- 0
    end

  let seal_chunk w =
    flush_run w;
    if w.chunk_refs > 0 || Buffer.length w.tok_buf > 0 then begin
      let payload = Buffer.create (Buffer.length w.tok_buf + 64) in
      put_varint payload w.chunk_refs;
      put_varint payload w.obj_count;
      Buffer.add_buffer payload w.obj_buf;
      Buffer.add_buffer payload w.tok_buf;
      let payload = Buffer.contents payload in
      let md5 = Digest.string payload in
      let offset = pos_out w.oc in
      output_char w.oc 'C';
      output_string w.oc (u32le_bytes (String.length payload));
      output_string w.oc md5;
      output_string w.oc payload;
      w.index_rev <- (offset, w.chunk_refs, md5) :: w.index_rev;
      Buffer.clear w.obj_buf;
      Buffer.clear w.tok_buf;
      w.obj_count <- 0;
      w.chunk_refs <- 0;
      w.prev_addr <- 0;
      w.prev_id <- 0
    end

  (* first reference to [obj_id] anywhere in the trace: table it *)
  let table_object w obj_id =
    let n = Bytes.length w.seen in
    if obj_id >= n then begin
      let seen = Bytes.make (Stdlib.max (2 * n) (obj_id + 1)) '\000' in
      Bytes.blit w.seen 0 seen 0 n;
      w.seen <- seen
    end;
    Bytes.set w.seen obj_id '\001';
    match w.resolve obj_id with
    | Some o ->
      put_obj w.obj_buf o;
      w.obj_count <- w.obj_count + 1
    | None -> ()

  let add_ref w ~addr ~size ~op ~obj_id =
    if
      obj_id >= 0
      && (obj_id >= Bytes.length w.seen
         || Bytes.unsafe_get w.seen obj_id = '\000')
    then table_object w obj_id;
    let is_write = match op with Access.Read -> false | Access.Write -> true in
    put_varint w.run_buf ((size lsl 1) lor Bool.to_int is_write);
    put_varint w.run_buf (zigzag (addr - w.prev_addr));
    put_varint w.run_buf (zigzag (obj_id - w.prev_id));
    w.prev_addr <- addr;
    w.prev_id <- obj_id;
    w.run_count <- w.run_count + 1;
    w.chunk_refs <- w.chunk_refs + 1;
    w.t_refs <- w.t_refs + 1;
    if is_write then w.t_writes <- w.t_writes + 1
    else w.t_reads <- w.t_reads + 1;
    if w.chunk_refs >= w.chunk_capacity then seal_chunk w

  let add_batch w batch ~obj_ids ~first ~n =
    Sink.Batch.check_slice batch ~first ~n;
    if first + n > Array.length obj_ids then
      invalid_arg "Trace_codec.Writer.add_batch: obj_ids";
    (* the slice is checked: read the hoisted planes unchecked *)
    let addrs = Sink.Batch.addrs batch
    and sizes = Sink.Batch.sizes batch
    and ops = Sink.Batch.ops batch in
    for i = first to first + n - 1 do
      add_ref w
        ~addr:(Bigarray.Array1.unsafe_get addrs i)
        ~size:(Bigarray.Array1.unsafe_get sizes i)
        ~op:
          (if Bigarray.Array1.unsafe_get ops i <> '\000' then Access.Write
           else Access.Read)
        ~obj_id:(Array.unsafe_get obj_ids i)
    done

  let add_instr w n =
    if n <= 0 then invalid_arg "Trace_codec.Writer.add_instr: count";
    flush_run w;
    Buffer.add_char w.tok_buf (Char.chr tag_instr);
    put_varint w.tok_buf n

  let add_phase w p =
    flush_run w;
    Buffer.add_char w.tok_buf (Char.chr tag_phase);
    put_varint w.tok_buf (phase_code p)

  let add_persist w (p : Persist.t) =
    if w.w_version < 2 then
      err w.w_path "persist events need NVT version >= 2 (writer is v%d)"
        w.w_version;
    flush_run w;
    Buffer.add_char w.tok_buf (Char.chr tag_persist);
    let epoch sub label checkpoint =
      Buffer.add_char w.tok_buf (Char.chr sub);
      Buffer.add_char w.tok_buf (if checkpoint then '\001' else '\000');
      put_str w.tok_buf label
    in
    match p with
    | Persist.Epoch_begin { label; checkpoint } ->
      epoch psub_epoch_begin label checkpoint
    | Persist.Epoch_commit { label; checkpoint } ->
      epoch psub_epoch_commit label checkpoint
    | Persist.Flush { obj_id; off; len } ->
      Buffer.add_char w.tok_buf (Char.chr psub_flush);
      put_varint w.tok_buf obj_id;
      put_varint w.tok_buf off;
      put_varint w.tok_buf len
    | Persist.Fence -> Buffer.add_char w.tok_buf (Char.chr psub_fence)
    | Persist.Declare { obj_id } ->
      Buffer.add_char w.tok_buf (Char.chr psub_declare);
      put_varint w.tok_buf obj_id

  let finish w ?(objects = []) ?(stack_objects = []) () =
    seal_chunk w;
    let index = List.rev w.index_rev in
    let trace_digest =
      Digest.string
        (String.concat "" (w.header_md5 :: List.map (fun (_, _, d) -> d) index))
    in
    let payload = Buffer.create 4096 in
    put_varint payload w.t_refs;
    put_varint payload w.t_reads;
    put_varint payload w.t_writes;
    put_varint payload (List.length objects);
    List.iter (put_obj payload) objects;
    put_varint payload (List.length stack_objects);
    List.iter (put_obj payload) stack_objects;
    put_varint payload (List.length index);
    List.iter
      (fun (offset, refs, md5) ->
        put_varint payload offset;
        put_varint payload refs;
        Buffer.add_string payload md5)
      index;
    Buffer.add_string payload trace_digest;
    let payload = Buffer.contents payload in
    let trailer_offset = pos_out w.oc in
    output_char w.oc 'T';
    output_string w.oc (u32le_bytes (String.length payload));
    output_string w.oc (Digest.string payload);
    output_string w.oc payload;
    let eof = Buffer.create 16 in
    Buffer.add_int64_le eof (Int64.of_int trailer_offset);
    Buffer.add_string eof eof_magic;
    Buffer.output_buffer w.oc eof;
    let bytes = pos_out w.oc in
    close_out w.oc;
    w.closed <- true;
    Nvsc_obs.Metrics.Counter.add m_record_refs w.t_refs;
    Nvsc_obs.Metrics.Counter.add m_record_bytes bytes;
    {
      refs = w.t_refs;
      reads = w.t_reads;
      writes = w.t_writes;
      chunks = List.length index;
      bytes;
      digest = Digest.to_hex trace_digest;
    }

  let abort w = if not w.closed then close_out_noerr w.oc
end

(* --- reader ------------------------------------------------------------- *)

type chunk_info = { c_offset : int; c_refs : int; c_md5 : string }

module Reader = struct
  type t = {
    r_path : string;
    ic : in_channel;
    r_version : int;
    r_meta : meta;
    r_chunk_capacity : int;
    r_refs : int;
    r_reads : int;
    r_writes : int;
    r_objects : Mem_object.t list;
    r_stack : Mem_object.t list;
    index : chunk_info array;
    r_digest : string;  (* hex *)
    data_start : int;
    trailer_offset : int;
  }

  let open_ path =
    let ic = try open_in_bin path with Sys_error m -> raise (Error m) in
    match
      let len = in_channel_length ic in
      if len < String.length magic + 2 + 4 + 16 then err path "truncated file";
      let m = really_read ic path (String.length magic) in
      if m <> magic then err path "bad magic (not an NVT trace)";
      let v = read_u16le ic path in
      if v < min_version || v > version then
        err path "unsupported NVT version %d" v;
      let hlen = read_u32le ic path in
      if 14 + hlen + 16 > len then err path "truncated file";
      let header_payload = really_read ic path hlen in
      let r_meta, r_chunk_capacity =
        get_meta (dec_string header_payload ~path ~what:"header")
      in
      seek_in ic (len - 16);
      let eof = really_read ic path 16 in
      if String.sub eof 8 8 <> eof_magic then
        err path "truncated file (missing trailer)";
      let trailer_offset =
        let rec go i acc =
          if i >= 8 then acc
          else
            go (i + 1)
              Int64.(logor acc (shift_left (of_int (Char.code eof.[i])) (8 * i)))
        in
        Int64.to_int (go 0 0L)
      in
      if trailer_offset < 14 + hlen || trailer_offset >= len - 16 then
        err path "corrupt trailer offset";
      seek_in ic trailer_offset;
      if really_read ic path 1 <> "T" then err path "corrupt trailer";
      let tlen = read_u32le ic path in
      let tmd5 = really_read ic path 16 in
      if trailer_offset + 1 + 4 + 16 + tlen > len - 16 then
        err path "truncated file";
      let payload = really_read ic path tlen in
      if Digest.string payload <> tmd5 then
        err path "corrupt trailer (digest mismatch)";
      let d = dec_string payload ~path ~what:"trailer" in
      let r_refs = get_varint d in
      let r_reads = get_varint d in
      let r_writes = get_varint d in
      let nobjs = get_varint d in
      let r_objects = List.init nobjs (fun _ -> get_obj d) in
      let nstack = get_varint d in
      let r_stack = List.init nstack (fun _ -> get_obj d) in
      let nchunks = get_varint d in
      (* an index entry takes at least 18 bytes *)
      if nchunks > (d.lim - d.pos) / 18 then err path "truncated trailer";
      let index =
        Array.init nchunks (fun _ ->
            let c_offset = get_varint d in
            let c_refs = get_varint d in
            let c_md5 = get_raw d 16 in
            { c_offset; c_refs; c_md5 })
      in
      (* A record takes at least three payload bytes, so a chunk's declared
         count must fit before the next chunk: the decode batch is then
         bounded by the file, whatever the index says. *)
      Array.iteri
        (fun k c ->
          let next =
            if k + 1 < nchunks then index.(k + 1).c_offset else trailer_offset
          in
          if c.c_refs > (next - c.c_offset - 21) / 3 then
            err path "corrupt chunk index (entry %d)" k)
        index;
      let stored_digest = get_raw d 16 in
      let recomputed =
        Digest.string
          (String.concat ""
             (Digest.string header_payload
             :: (Array.to_list index |> List.map (fun c -> c.c_md5))))
      in
      if recomputed <> stored_digest then
        err path "corrupt trace (whole-trace digest mismatch)";
      {
        r_path = path;
        ic;
        r_version = v;
        r_meta;
        r_chunk_capacity;
        r_refs;
        r_reads;
        r_writes;
        r_objects;
        r_stack;
        index;
        r_digest = Digest.to_hex stored_digest;
        data_start = 14 + hlen;
        trailer_offset;
      }
    with
    | r -> r
    | exception e ->
      close_in_noerr ic;
      raise e

  let meta r = r.r_meta
  let version r = r.r_version
  let chunk_capacity r = r.r_chunk_capacity
  let refs r = r.r_refs
  let reads r = r.r_reads
  let writes r = r.r_writes
  let chunks r = Array.length r.index
  let digest r = r.r_digest
  let objects r = r.r_objects
  let stack_objects r = r.r_stack
  let close r = close_in_noerr r.ic
end

(* Where the decode of one chunk stands between calls to [decode_refs]:
   the batch rows filled and not yet delivered, the chunk's records
   decoded so far, and its delta baselines (reset per chunk). *)
type cursor = {
  mutable len : int;
  mutable decoded : int;
  mutable prev_addr : int;
  mutable prev_id : int;
}

(* Decode chunk [k]'s tokens from [d.pos] up to the next token that ends
   a slice (phase, persist, an instruction count when [skip_instr] is
   false) or the end of the chunk: REFS runs straight into the batch
   planes and [obj_ids], skipped instruction counts checked and dropped.
   The position, the row and the baselines stay in locals, and a record
   whose three varints are one byte each (most of them) is read straight
   from the buffer; any other record goes through [get_varint] and its
   checks.  The stores are unchecked: [n <= nrefs - decoded] is checked
   before each run, and the rows being filled hold only records of this
   chunk, so every row is below [nrefs = c_refs <= capacity], which both
   the batch and [obj_ids] are sized to. *)
let decode_refs d c batch obj_ids ~k ~nrefs ~skip_instr =
  let addrs = Sink.Batch.addrs batch
  and sizes = Sink.Batch.sizes batch
  and ops = Sink.Batch.ops batch in
  let buf = d.b and lim = d.lim in
  let pos = ref d.pos and len = ref c.len and decoded = ref c.decoded in
  let prev_addr = ref c.prev_addr and prev_id = ref c.prev_id in
  let go = ref true in
  while !go && !pos < lim do
    let t = Char.code (Bytes.unsafe_get buf !pos) in
    if t = tag_refs then begin
      d.pos <- !pos + 1;
      let n = get_varint d in
      pos := d.pos;
      if n > nrefs - !decoded then
        err d.d_path "corrupt chunk %d (record count mismatch)" k;
      let first = !len in
      for i = first to first + n - 1 do
        let p = !pos in
        let sz_op, za, zi =
          if
            p + 3 <= lim
            && Char.code (Bytes.unsafe_get buf p)
               lor Char.code (Bytes.unsafe_get buf (p + 1))
               lor Char.code (Bytes.unsafe_get buf (p + 2))
               < 0x80
          then begin
            pos := p + 3;
            ( Char.code (Bytes.unsafe_get buf p),
              Char.code (Bytes.unsafe_get buf (p + 1)),
              Char.code (Bytes.unsafe_get buf (p + 2)) )
          end
          else begin
            d.pos <- p;
            let sz_op = get_varint d in
            let za = get_varint d in
            let zi = get_varint d in
            pos := d.pos;
            (sz_op, za, zi)
          end
        in
        let addr = !prev_addr + unzigzag za in
        let obj_id = !prev_id + unzigzag zi in
        prev_addr := addr;
        prev_id := obj_id;
        Bigarray.Array1.unsafe_set addrs i addr;
        Bigarray.Array1.unsafe_set sizes i (sz_op lsr 1);
        (* the op plane's encoding: '\001' for a write, '\000' for a read *)
        Bigarray.Array1.unsafe_set ops i (Char.unsafe_chr (sz_op land 1));
        Array.unsafe_set obj_ids i obj_id
      done;
      len := first + n;
      decoded := !decoded + n
    end
    else if t = tag_instr && skip_instr then begin
      d.pos <- !pos + 1;
      ignore (get_varint d : int);
      pos := d.pos
    end
    else go := false
  done;
  d.pos <- !pos;
  c.len <- !len;
  c.decoded <- !decoded;
  c.prev_addr <- !prev_addr;
  c.prev_id <- !prev_id

let stream (r : Reader.t) ?(on_objects = fun _ -> ()) ?(on_phase = fun _ -> ())
    ?on_instr ?(on_persist = fun _ -> ()) ?(on_chunk = fun _ -> ()) ~on_refs () =
  let path = r.Reader.r_path in
  let ic = r.Reader.ic in
  let cap =
    Array.fold_left (fun acc c -> Stdlib.max acc c.c_refs) 1 r.Reader.index
  in
  let batch = Sink.Batch.create cap in
  let obj_ids = Array.make cap (-1) in
  let c = { len = 0; decoded = 0; prev_addr = 0; prev_id = 0 } in
  let skip_instr = Option.is_none on_instr in
  let deliver () =
    if c.len > 0 then begin
      on_refs batch ~obj_ids ~first:0 ~n:c.len;
      c.len <- 0
    end
  in
  let decode_chunk k info d =
    let nrefs = get_varint d in
    if nrefs <> info.c_refs then
      err path "corrupt chunk %d (record count mismatch)" k;
    let nobjs = get_varint d in
    if nobjs > 0 then on_objects (List.init nobjs (fun _ -> get_obj d));
    c.decoded <- 0;
    c.prev_addr <- 0;
    c.prev_id <- 0;
    decode_refs d c batch obj_ids ~k ~nrefs ~skip_instr;
    while d.pos < d.lim do
      (match get_byte d with
      | t when t = tag_phase ->
        deliver ();
        on_phase (phase_of_code path (get_varint d))
      | t when t = tag_instr -> (
        (* reached only when the caller counts instructions: a slice ends
           here *)
        let n = get_varint d in
        match on_instr with
        | Some f ->
          deliver ();
          f n
        | None -> ())
      | t when t = tag_persist ->
        if r.Reader.r_version < 2 then
          err path "corrupt chunk %d (persist token in a v1 trace)" k;
        deliver ();
        let ev =
          match get_byte d with
          | s when s = psub_epoch_begin || s = psub_epoch_commit ->
            let checkpoint = get_byte d <> 0 in
            let label = get_str d in
            if s = psub_epoch_begin then
              Persist.Epoch_begin { label; checkpoint }
            else Persist.Epoch_commit { label; checkpoint }
          | s when s = psub_flush ->
            let obj_id = get_varint d in
            let off = get_varint d in
            let len = get_varint d in
            Persist.Flush { obj_id; off; len }
          | s when s = psub_fence -> Persist.Fence
          | s when s = psub_declare -> Persist.Declare { obj_id = get_varint d }
          | s -> err path "corrupt chunk %d (unknown persist event %d)" k s
        in
        on_persist ev
      | t -> err path "corrupt chunk %d (unknown token %d)" k t);
      decode_refs d c batch obj_ids ~k ~nrefs ~skip_instr
    done;
    if c.decoded <> nrefs then
      err path "corrupt chunk %d (record count mismatch)" k;
    deliver ();
    nrefs
  in
  (* one payload buffer for the whole stream, grown to the largest chunk *)
  let payload = ref Bytes.empty in
  seek_in ic r.Reader.data_start;
  Array.iteri
    (fun k info ->
      if pos_in ic <> info.c_offset then
        err path "corrupt chunk %d (offset mismatch)" k;
      if really_read ic path 1 <> "C" then err path "corrupt chunk %d" k;
      let clen = read_u32le ic path in
      let stored = really_read ic path 16 in
      if stored <> info.c_md5 then
        err path "corrupt chunk %d (index digest mismatch)" k;
      if clen > r.Reader.trailer_offset - pos_in ic then
        err path "corrupt chunk %d (length overruns the trailer)" k;
      if Bytes.length !payload < clen then payload := Bytes.create clen;
      (try really_input ic !payload 0 clen
       with End_of_file -> err path "truncated file");
      if Digest.subbytes !payload 0 clen <> stored then
        err path "corrupt chunk %d (digest mismatch)" k;
      on_chunk k;
      let what = Printf.sprintf "chunk %d" k in
      let nrefs = decode_chunk k info (dec !payload ~lim:clen ~path ~what) in
      Nvsc_obs.Metrics.Counter.incr m_replay_chunks;
      Nvsc_obs.Metrics.Counter.add m_replay_refs nrefs)
    r.Reader.index;
  if pos_in ic <> r.Reader.trailer_offset then
    err path "trailing garbage between chunks and trailer"
