let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
