let schedule ~seed ~rate ~count =
  let rng = Repro_util.Rng.create seed in
  let t = ref 0.0 in
  Array.init count (fun _ ->
      let u = Repro_util.Rng.float rng 1.0 in
      t := !t -. (log (1.0 -. u) /. rate);
      !t)

type accounting = { latency : float array; late : float array }

let account ~due ~sent ~completed =
  let k = Array.length due in
  if Array.length sent <> k || Array.length completed <> k then
    invalid_arg "Openloop.account: length mismatch";
  {
    latency = Array.init k (fun i -> completed.(i) -. due.(i));
    late = Array.init k (fun i -> Float.max 0.0 (sent.(i) -. due.(i)));
  }
