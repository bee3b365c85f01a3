let append_record oc ~index (a : Access.t) =
  Printf.fprintf oc "0x%x %s %d\n" a.addr
    (match a.op with Access.Read -> "P_MEM_RD" | Access.Write -> "P_MEM_WR")
    index

let save log path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let i = ref 0 in
      Trace_log.replay log (fun a ->
          append_record oc ~index:!i a;
          incr i))

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
           | Some a -> Trace_log.record log a
           | None -> ()
         done
       with End_of_file -> ());
      log)
