let pp_bytes fmt n =
  let f = float_of_int n in
  if f < 1024. then Format.fprintf fmt "%dB" n
  else if f < 1024. *. 1024. then Format.fprintf fmt "%.1fKB" (f /. 1024.)
  else if f < 1024. *. 1024. *. 1024. then
    Format.fprintf fmt "%.1fMB" (f /. (1024. *. 1024.))
  else Format.fprintf fmt "%.2fGB" (f /. (1024. *. 1024. *. 1024.))

let pp_ns fmt t =
  if t < 1e3 then Format.fprintf fmt "%.1fns" t
  else if t < 1e6 then Format.fprintf fmt "%.2fus" (t /. 1e3)
  else if t < 1e9 then Format.fprintf fmt "%.2fms" (t /. 1e6)
  else Format.fprintf fmt "%.3fs" (t /. 1e9)

let pp_watts fmt w =
  if Float.abs w < 1.0 then Format.fprintf fmt "%.1fmW" (w *. 1e3)
  else Format.fprintf fmt "%.3fW" w

let kib n = n * 1024
let mib n = n * 1024 * 1024

let ns_of_cycles ~cycles ~ghz = float_of_int cycles /. ghz

let cycles_of_ns ~ns ~ghz = int_of_float (Float.ceil (ns *. ghz))
