(* One spawned run of a real binary: wall time from a monotonic clock,
   CPU time and peak RSS from wait4, and an MD5 of everything it wrote to
   standard output. *)

external wait4 : int -> float -> int * bool * float * float * int
  = "nvbench_wait4"

external now_ns : unit -> int = "nvbench_now_ns" [@@noalloc]

type run = {
  wall_s : float;
  cpu_s : float;  (** user + system *)
  rss_mb : float;  (** peak resident set *)
  failure : string option;
      (** nonzero exit, timeout, or stdout differing from the expected
          digest *)
}

let run ~exe ~args ~stdout_file ~timeout_s ~expected_md5 =
  let devnull = Unix.openfile "/dev/null" [ O_RDWR; O_CLOEXEC ] 0 in
  let out =
    Unix.openfile stdout_file [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let t0 = now_ns () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull out devnull
  in
  let code, timed_out, user_s, sys_s, maxrss_kb = wait4 pid timeout_s in
  let wall_s = float_of_int (now_ns () - t0) *. 1e-9 in
  Unix.close out;
  Unix.close devnull;
  let failure =
    if timed_out then Some (Printf.sprintf "timed out after %.1fs" timeout_s)
    else if code <> 0 then Some (Printf.sprintf "exit code %d" code)
    else if Digest.to_hex (Digest.file stdout_file) <> expected_md5 then
      Some "stdout differs from the expected digest"
    else None
  in
  {
    wall_s;
    cpu_s = user_s +. sys_s;
    rss_mb = float_of_int maxrss_kb /. 1024.;
    failure;
  }
