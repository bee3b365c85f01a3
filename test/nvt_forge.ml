(* Hand-built NVT files for damage tests.  [build] frames chunk payloads
   and seals every digest that covers them (each chunk's MD5, its index
   entry, the whole-trace digest and the trailer MD5), so a reader gets
   past the digests and into structural decoding of the payloads. *)

module Trace_codec = Nvsc_memtrace.Trace_codec

let u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let u64le s off = u32le s off lor (u32le s (off + 4) lsl 32)

(* All 63 bits of [n] as unsigned LEB128: a negative [n] takes nine
   bytes, the shape a writer never emits. *)
let varint n =
  let b = Buffer.create 9 in
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The magic, version, length and meta payload of [file]. *)
let header file = String.sub file 0 (14 + u32le file 10)

(* [(refs, payload)] of every chunk of [file], in file order. *)
let chunks file =
  let trailer = u64le file (String.length file - 16) in
  let rec go pos acc =
    if pos >= trailer then List.rev acc
    else
      let len = u32le file (pos + 1) in
      let payload = String.sub file (pos + 21) len in
      let refs =
        let rec v i shift acc =
          let b = Char.code payload.[i] in
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b < 0x80 then acc else v (i + 1) (shift + 7) acc
        in
        v 0 0 0
      in
      go (pos + 21 + len) ((refs, payload) :: acc)
  in
  go (String.length (header file)) []

(* A trace of [header] and [chunks]; the trailer declares every
   reference a read, carries no object tables, and declares [nchunks]
   index entries (default: one per chunk). *)
let build ?nchunks ~header chunks =
  let buf = Buffer.create 4096 in
  let u32 n = Buffer.add_int32_le buf (Int32.of_int n) in
  Buffer.add_string buf header;
  let index =
    List.map
      (fun (refs, payload) ->
        let offset = Buffer.length buf and md5 = Digest.string payload in
        Buffer.add_char buf 'C';
        u32 (String.length payload);
        Buffer.add_string buf md5;
        Buffer.add_string buf payload;
        (offset, refs, md5))
      chunks
  in
  let refs = List.fold_left (fun acc (_, r, _) -> acc + r) 0 index in
  let t = Buffer.create 256 in
  List.iter
    (fun n -> Buffer.add_string t (varint n))
    [
      refs; refs; 0; 0; 0; Option.value nchunks ~default:(List.length index);
    ];
  List.iter
    (fun (offset, refs, md5) ->
      Buffer.add_string t (varint offset);
      Buffer.add_string t (varint refs);
      Buffer.add_string t md5)
    index;
  let meta = String.sub header 14 (String.length header - 14) in
  Buffer.add_string t
    (Digest.string
       (String.concat ""
          (Digest.string meta :: List.map (fun (_, _, m) -> m) index)));
  let trailer = Buffer.contents t in
  let trailer_offset = Buffer.length buf in
  Buffer.add_char buf 'T';
  u32 (String.length trailer);
  Buffer.add_string buf (Digest.string trailer);
  Buffer.add_string buf trailer;
  Buffer.add_int64_le buf (Int64.of_int trailer_offset);
  Buffer.add_string buf "NVSCAVTE";
  Buffer.contents buf

(* The header of an empty trace written by the library. *)
let empty_header () =
  let path = Filename.temp_file "nvsc-forge" ".nvt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let meta =
    {
      Trace_codec.app = "forged";
      description = "hand-built damage";
      input_description = "n/a";
      paper_footprint_mb = 1.0;
      scale = 1.0;
      iterations = 1;
      batch_capacity = Nvsc_memtrace.Sink.default_capacity;
    }
  in
  let w = Trace_codec.Writer.create ~path ~meta () in
  ignore (Trace_codec.Writer.finish w ());
  header (read_file path)

(* [n] 8-byte reads of address 0 by object 0, as a REFS run's records. *)
let reads n = String.concat "" (List.init n (fun _ -> "\x10\x00\x00"))

(* The payload of a chunk declaring [declared] references whose one REFS
   run holds [run] of them. *)
let refs_chunk ~declared ~run =
  String.concat "" [ varint declared; varint 0; "\x02"; varint run; reads run ]

(* One chunk declaring 4 references whose REFS run holds 40000. *)
let over_long_run () =
  build ~header:(empty_header ())
    [ (4, refs_chunk ~declared:4 ~run:40_000) ]

(* One chunk of 8 references whose index entry declares 2^40. *)
let over_declared_index () =
  build ~header:(empty_header ())
    [ (1 lsl 40, refs_chunk ~declared:8 ~run:8) ]

(* One valid chunk behind a trailer that declares 2^40 index entries. *)
let over_declared_chunks () =
  build ~nchunks:(1 lsl 40) ~header:(empty_header ())
    [ (8, refs_chunk ~declared:8 ~run:8) ]

(* One chunk whose object table gives a name length of 2^62, a varint
   that overflows to a negative int. *)
let negative_length () =
  build ~header:(empty_header ())
    [ (0, String.concat "" [ varint 0; varint 1; varint 0; varint min_int ]) ]

(* One chunk whose object table describes object 7, a global named ""
   at address 0 of size 0, otherwise well formed. *)
let empty_object () =
  let obj = [ varint 7; varint 0; "\x00"; varint 0; varint 0 ] in
  let rest = [ varint 0; varint 0; varint 0; "\x01" ] in
  build ~header:(empty_header ())
    [ (0, String.concat "" ((varint 0 :: varint 1 :: obj) @ rest)) ]
