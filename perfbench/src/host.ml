(* /proc/stat counts in USER_HZ ticks, 100 per second on Linux. *)
let ticks_per_s = 100.0

(* The 8th value of each per-CPU "cpuN ..." line is its steal count. *)
let per_cpu_steal line =
  match String.split_on_char ' ' line with
  | cpu :: fields
    when String.length cpu > 3 && String.sub cpu 0 3 = "cpu" && List.length fields >= 8 ->
    int_of_string_opt (List.nth fields 7)
  | _ -> None

let steal_of_stat text =
  let counts = List.filter_map per_cpu_steal (String.split_on_char '\n' text) in
  if counts = [] then 0.0
  else
    float_of_int (List.fold_left ( + ) 0 counts)
    /. float_of_int (List.length counts)
    /. ticks_per_s

let steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text -> steal_of_stat text

let time f =
  let s0 = steal_s () in
  let v, wall = Clock.time f in
  (v, wall, steal_s () -. s0)
