let vertices = 1 lsl 12
let degree = 4
let sources = 48

(* A ring plus three pseudo-random chords per vertex, so every search
   reaches the whole graph. *)
let graph =
  lazy
    (let state = ref 0x2545f491 in
     Array.init (vertices * degree) (fun i ->
         if i mod degree = 0 then ((i / degree) + 1) mod vertices
         else begin
           state := ((!state * 1103515245) + 12345) land 0x3fffffff;
           !state mod vertices
         end))

(* Made once: a sample allocates nothing, so it triggers no collection
   and its time does not depend on the state of the program's heap. *)
let dist = lazy (Array.make vertices 0)
let queue = lazy (Array.make vertices 0)

let bfs adj dist queue src =
  Array.fill dist 0 vertices (-1);
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for j = u * degree to (u * degree) + degree - 1 do
      let v = adj.(j) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

let sample () =
  let adj = Lazy.force graph and dist = Lazy.force dist and queue = Lazy.force queue in
  let t0 = Clock.now () in
  for src = 0 to sources - 1 do
    bfs adj dist queue src
  done;
  Clock.now () -. t0

let nominal_s = 0.0047

let speed_of samples = nominal_s /. Stats.median (Array.of_list samples)

type meter = { mutable samples : float list; mutable paused : float }

let meter () = { samples = []; paused = 0.0 }
let samples_per_pause = 3

let pause m =
  let t0 = Clock.now () in
  for _ = 1 to samples_per_pause do
    m.samples <- sample () :: m.samples
  done;
  m.paused <- m.paused +. (Clock.now () -. t0)

let take_paused m =
  let p = m.paused in
  m.paused <- 0.0;
  p

let speed m = speed_of m.samples
