(** The benchmark's yardstick for how fast the host runs right now.

    On a shared virtual machine the same call can take a quarter longer a
    few minutes later, because of what other guests do.  So the benchmark
    times a fixed piece of work of its own in the pauses between the
    program's calls, and scales every end-to-end time by how much slower
    or faster than nominal that work ran over the same stretch.  The work
    is breadth-first search over a fixed pseudo-random graph of 2^12
    vertices, small enough to stay in the CPU's caches: random reads and
    array writes, like the program's graph code, but none of the
    program's own code, so no change to the program can move it.  It
    allocates nothing, so the garbage collector's state, which differs
    from workload to workload and from moment to moment, does not enter
    its time. *)

val nominal_s : float
(** The median time of one run of the work on the two-vCPU virtual
    machine the benchmark was calibrated on. *)

val speed_of : float list -> float
(** [nominal_s] over the median of the given sample times: below 1 when
    the host ran slow.  A time multiplied by it is host-normalized. *)

type meter
(** Samples taken over one process's run, and the time they took. *)

val meter : unit -> meter

val pause : meter -> unit
(** Takes three samples of about 5 ms each, now. *)

val take_paused : meter -> float
(** Seconds spent in [pause] since the last [take_paused]: the caller
    removes them from the time it measured around them. *)

val speed : meter -> float
(** [speed_of] every sample taken so far. *)
