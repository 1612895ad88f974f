(** Monotonic host clock (CLOCK_MONOTONIC). *)

val now_ns : unit -> int64
val now : unit -> float
(** Seconds since an arbitrary origin. *)

val time : (unit -> 'a) -> 'a * float
(** Result and elapsed seconds. *)
