(** Time the hypervisor withheld from this virtual machine.

    On a shared host a guest's vCPUs are sometimes not scheduled at all
    ("steal" in /proc/stat).  That time passes on the wall clock but no
    code of the guest runs, so the benchmark subtracts it from the times
    it gates on.  On bare metal the steal counter stays at 0. *)

val steal_s : unit -> float
(** Cumulative steal time, averaged over the vCPUs, in seconds; [0.0]
    when /proc/stat is unavailable. *)

val steal_of_stat : string -> float
(** [steal_s] read from the given /proc/stat text. *)

val time : (unit -> 'a) -> 'a * float * float
(** [(result, wall, steal)]: the elapsed wall-clock seconds and the
    steal seconds (vCPU mean) that fell within them. *)
