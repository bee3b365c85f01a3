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

let parse_record ?(size = 64) line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ addr; op; _cycle ] ->
      let addr =
        match int_of_string addr with
        | a when a >= 0 -> a
        (* hex literals past max_int also wrap to negatives *)
        | _ -> failwith ("Trace_file: negative address " ^ addr)
        | exception Failure _ -> failwith ("Trace_file: bad address " ^ addr)
      in
      let op =
        match op with
        | "P_MEM_RD" | "READ" -> Access.Read
        | "P_MEM_WR" | "WRITE" -> Access.Write
        | _ -> failwith ("Trace_file: bad operation " ^ op)
      in
      Some { Access.addr; size; op }
    | _ -> failwith ("Trace_file: malformed record: " ^ line)

let load ?(size = 64) path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let log = Trace_log.create () in
      let lineno = ref 0 in
      (try
         while true do
           incr lineno;
           let line = input_line ic in
           match
             try parse_record ~size line
             with Failure msg ->
               failwith (Printf.sprintf "%s: %s (line %d)" path msg !lineno)
           with
           | Some { Access.addr; size; op } ->
             Trace_log.record_raw log ~addr ~size ~op
           | None -> ()
         done
       with End_of_file -> ());
      log)
