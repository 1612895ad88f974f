(** Memory readings from /proc. *)

val vm_hwm_mb : ?pid:int -> unit -> float
(** Peak resident set size (VmHWM) of the process, this one by default,
    in MiB; [0.0] when /proc is unavailable. *)
