let save log path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let cycle = ref 0 in
      Trace_log.iter_slices log (fun batch ~first ~n ->
          for i = first to first + n - 1 do
            Printf.fprintf oc "0x%x %s %d\n" (Sink.Batch.addr batch i)
              (if Sink.Batch.is_write batch i then "P_MEM_WR" else "P_MEM_RD")
              !cycle;
            incr cycle
          done))

(* A bad line is quoted by at most this many bytes. *)
let quote_limit = 40

let quote line =
  if String.length line <= quote_limit then Printf.sprintf "%S" line
  else Printf.sprintf "%S..." (String.sub line 0 quote_limit)

let parse_record ?(size = 64) line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ addr; op; _cycle ] ->
      let addr =
        match int_of_string addr with
        | a when a >= 0 -> a
        | _ when addr.[0] = '-' ->
          failwith ("Trace_file: negative address " ^ quote addr)
        (* a hex literal past max_int wraps to a negative int *)
        | _ -> failwith ("Trace_file: address out of range " ^ quote addr)
        | exception Failure _ ->
          failwith ("Trace_file: bad address " ^ quote addr)
      in
      let op =
        match op with
        | "P_MEM_RD" | "READ" -> Access.Read
        | "P_MEM_WR" | "WRITE" -> Access.Write
        | _ -> failwith ("Trace_file: bad operation " ^ quote op)
      in
      Some { Access.addr; size; op }
    | _ -> failwith ("Trace_file: malformed record " ^ quote line)

(* No record needs more: a 64-bit hex address, the operation and a
   cycle count take under 60 bytes. *)
let max_line = 4096

(* Hand each line (without its newline) to [f] with its 1-based number,
   reading through one fixed buffer: a line longer than [max_line] fails
   when it reaches the cap, so memory stays bounded whatever the input. *)
let iter_lines path ic f =
  let chunk = Bytes.create 65536 in
  let line = Buffer.create 128 in
  let lineno = ref 1 in
  let rec read () =
    let got = input ic chunk 0 (Bytes.length chunk) in
    if got > 0 then begin
      let start = ref 0 in
      for i = 0 to got - 1 do
        if Bytes.unsafe_get chunk i = '\n' then begin
          Buffer.add_subbytes line chunk !start (i - !start);
          if Buffer.length line > max_line then too_long ();
          f !lineno (Buffer.contents line);
          Buffer.clear line;
          incr lineno;
          start := i + 1
        end
      done;
      Buffer.add_subbytes line chunk !start (got - !start);
      if Buffer.length line > max_line then too_long ();
      read ()
    end
  and too_long () =
    failwith
      (Printf.sprintf "%s: line longer than %d bytes, starting %s (line %d)"
         path max_line
         (quote (Buffer.sub line 0 quote_limit))
         !lineno)
  in
  read ();
  if Buffer.length line > 0 then f !lineno (Buffer.contents line)

let load ?(size = 64) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let log = Trace_log.create () in
      iter_lines path ic (fun lineno line ->
          match
            try parse_record ~size line
            with Failure msg ->
              failwith (Printf.sprintf "%s: %s (line %d)" path msg lineno)
          with
          | Some { Access.addr; size; op } ->
            Trace_log.record_raw log ~addr ~size ~op
          | None -> ());
      log)
