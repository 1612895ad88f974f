(** Sample statistics used by every benchmark metric. *)

type percentile = {
  value : float;
  count : int;  (** sample size *)
}

val nearest_rank : float array -> float -> percentile
(** Nearest-rank percentile: the sample of ordinal rank [ceil (p * k)] in
    ascending order, [p] in (0, 1].  Raises [Invalid_argument] on an empty
    sample. *)

val median : float array -> float
(** Middle sample, or the mean of the two middle samples. *)
