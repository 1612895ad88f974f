type percentile = { value : float; count : int }

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Ordinal rank ceil(p * k), computed on a 10^6 grid so that e.g.
   p = 0.99 with k = 100 gives rank 99 and not 100 through float error. *)
let rank p k =
  let ppm = Float.to_int (Float.round (p *. 1e6)) in
  let r = ((ppm * k) + 999_999) / 1_000_000 in
  max 1 (min k r)

let nearest_rank samples p =
  let k = Array.length samples in
  if k = 0 then invalid_arg "Stats.nearest_rank: empty sample";
  if not (p > 0.0 && p <= 1.0) then
    invalid_arg "Stats.nearest_rank: p outside (0, 1]";
  let r = rank p k in
  { value = (sorted samples).(r - 1); count = k }

let median samples =
  let k = Array.length samples in
  if k = 0 then invalid_arg "Stats.median: empty sample";
  let s = sorted samples in
  if k mod 2 = 1 then s.(k / 2) else (s.((k / 2) - 1) +. s.(k / 2)) /. 2.0
