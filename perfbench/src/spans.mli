(** Host-clock spans recorded by the benchmark around its own calls into
    the program's public functions.

    A span holds a name, monotonic start and end, its parent, the domain
    that ran it and, for serving spans, a request id.  Spans are kept in
    memory (one mutex-guarded list shared by all domains) and written out
    when the benchmark ends.  Nesting is tracked per domain; a span opened
    on a domain with no open span (a pool worker running a task) takes the
    recorder's adopting span as its parent, so worker-side calls hang
    under the entry call that scheduled them. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a top-level span *)
  domain : int;
  request : int;  (** [-1] outside the serving layer *)
  start_ns : int64;
  stop_ns : int64;
}

type t

val create : unit -> t

val with_span : t -> ?adopt:bool -> ?request:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a new span.  With [~adopt:true] the span becomes
    the parent of spans opened on other domains while it is open. *)

val spans : t -> span list
(** Every closed span, in id order. *)

val duration : span -> float
(** Seconds. *)

val seconds : int64 -> float
(** Nanoseconds to seconds. *)

val covered : lo:int64 -> hi:int64 -> (int64 * int64) list -> int64
(** Length of the union of the intervals, each clipped to [\[lo, hi\]]. *)

val self_time : span list -> span -> float
(** The span's duration minus the part of its interval that its direct
    children (spans of the list whose parent is this span) cover, in
    seconds.  Children running concurrently on several domains are
    counted once. *)

val subtree : span list -> span -> span list
(** The span and all its descendants. *)

type total = { calls : int; total_s : float; max_s : float }

val by_name : span list -> string -> total
(** Count, summed duration and longest duration of the spans so named. *)

val to_json : span list -> Repro_trace.Json.t
