(** Open-loop load accounting: requests are due on a fixed schedule,
    whatever the server does, and each is timed from when it was due. *)

val schedule : seed:int -> rate:float -> count:int -> float array
(** Poisson arrivals at [rate] per second: [count] increasing offsets in
    seconds from the start of the stream.  Pure function of its
    arguments. *)

type accounting = {
  latency : float array;
      (** completion minus due time: includes any wait the generator's own
          lateness or an earlier stall imposed on the request *)
  late : float array;
      (** how far each send trailed its due time (never negative) *)
}

val account :
  due:float array -> sent:float array -> completed:float array -> accounting
(** Per-request accounting from absolute due, send and completion times.
    Raises [Invalid_argument] on arrays of different lengths. *)
