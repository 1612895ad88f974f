(* The serve-mixed workload: one client drives the daemon open-loop at a
   fixed offered rate; an in-process replay of the same request lines
   through [Engine.handle] is the reference every daemon response must
   equal byte for byte, and the source of per-request service times. *)

open Repro_graph
open Repro_embedding
module Json = Repro_trace.Json
module Engine = Repro_serve.Engine
module Pool = Repro_util.Pool
module Rng = Repro_util.Rng
module Workload = Repro_serve.Workload
module Spans = Perfbench.Spans
module Clock = Perfbench.Clock
module Reference = Perfbench.Reference

(* The daemon's canonical instance. *)
let family = Workload.canonical_family
let n = Workload.canonical_n
let instance_seed = Workload.canonical_seed
let cache_capacity = Workload.canonical_cache_capacity
(* One domain, so the daemon's compute leaves the second CPU of a
   two-CPU host to the load generator, whose lateness would otherwise
   show up in every latency it reports. *)
let daemon_jobs = 1

(* Offered load: [rate] requests/s, of which [miss_share] are misses on
   fresh keys.  Chosen so the share of hits sent while a miss is being
   served sits well away from both 1% and 50%: then hit p50 stays in the
   fast mode and hit p99 in the queued mode.  The run prints the measured
   share as [serve.queued_hit_share]. *)
let rate = 100.0
let miss_share = 0.05

let instance () = Gen.by_family ~seed:instance_seed family ~n

let line id req =
  match Workload.to_json req with
  | Json.Obj fields -> Json.to_string (Json.Obj (("id", Json.Int id) :: fields))
  | _ -> invalid_arg "Serve_mixed.line"

type stream = {
  warm : string array;  (* the hot keys once each, closed loop *)
  lines : string array;  (* the open-loop stream *)
  due : float array;  (* offsets from the stream start, seconds *)
  stats_line : string;
}

(* A connected vertex set: the [size] vertices nearest to [center]. *)
let ball g ~center ~size =
  let dist = Algo.bfs_dist g center in
  let vs = List.init (Graph.n g) Fun.id in
  let by_dist = List.stable_sort (fun a b -> compare dist.(a) dist.(b)) vs in
  List.filteri (fun i _ -> i < size) by_dist |> List.sort compare

(* Misses that never repeat within a run, by operation in the canonical
   mix's 50/30/20 proportions: new DFS roots, separators of new connected
   vertex sets, decompositions at new piece targets.  Hot keys are never
   drawn. *)
let fresh_requests rng g ~hot ~count =
  let hot_roots =
    List.filter_map (function Workload.Dfs { root } -> Some root | _ -> None) hot
  in
  let roots =
    Array.of_list
      (List.filter (fun v -> not (List.mem v hot_roots)) (List.init n Fun.id))
  in
  Rng.shuffle_in_place rng roots;
  (* Above the mix's targets (24 and 48). *)
  let targets = Array.init 400 (fun i -> 60 + (2 * i)) in
  Rng.shuffle_in_place rng targets;
  let seen_sets = Hashtbl.create 16 in
  let rec fresh_set () =
    let center = Rng.int rng n and size = Rng.int_in_range rng ~lo:64 ~hi:256 in
    let s = ball g ~center ~size in
    if Hashtbl.mem seen_sets s then fresh_set ()
    else begin
      Hashtbl.add seen_sets s ();
      s
    end
  in
  let dfs = count / 2 and sep = count * 3 / 10 in
  let reqs =
    Array.init count (fun i ->
        if i < dfs then Workload.Dfs { root = roots.(i) }
        else if i < dfs + sep then
          Workload.Separator { part = Workload.Vertices (fresh_set ()) }
        else Workload.Decompose { piece = targets.(i - dfs - sep) })
  in
  Rng.shuffle_in_place rng reqs;
  reqs

(* The hits follow the canonical request mix ([Workload.mix]) at the
   benchmark's seed; the warm-up sends each of their distinct keys once. *)
let stream ~seed ~seconds =
  let g = Embedded.graph (instance ()) in
  let rng = Rng.create (seed * 7919 + 17) in
  let count = max 20 (Float.to_int (Float.round (rate *. seconds))) in
  let misses = max 1 (Float.to_int (Float.round (miss_share *. float count))) in
  let hot = Workload.mix ~seed ~n ~count:(count - misses) in
  let warm = List.sort_uniq compare hot in
  let is_miss = Array.init count (fun i -> i < misses) in
  Rng.shuffle_in_place rng is_miss;
  let fresh = fresh_requests rng g ~hot:warm ~count:misses in
  let next_hit = ref hot and next_miss = ref 0 in
  let reqs =
    Array.map
      (fun miss ->
        if miss then begin
          let r = fresh.(!next_miss) in
          incr next_miss;
          r
        end
        else
          match !next_hit with
          | r :: rest ->
            next_hit := rest;
            r
          | [] -> assert false)
      is_miss
  in
  let nwarm = List.length warm in
  {
    warm = Array.of_list (List.mapi line warm);
    lines = Array.mapi (fun i r -> line (nwarm + i) r) reqs;
    due = Perfbench.Openloop.schedule ~seed ~rate ~count;
    stats_line = Printf.sprintf {|{"id":%d,"op":"stats"}|} (nwarm + count);
  }

let all_lines s =
  Array.concat [ s.warm; s.lines; [| s.stats_line |] ]

(* ------------------------------------------------------------------ *)
(* In-process replay                                                    *)
(* ------------------------------------------------------------------ *)

let cache_misses engine =
  match Json.member "cache" (Engine.stats_json engine) with
  | Some c -> (
    match Json.member "misses" c with Some (Json.Int m) -> m | _ -> 0)
  | None -> 0

type pass = {
  create_s : float;
  responses : string array;
  parse : float array;
  handle : float array;
  encode : float array;
  missed : bool array;
}

(* Requests between two reference pauses of a replay pass. *)
let pause_every = 100

(* One pass over every line on a fresh engine: [Json.of_string],
   [Engine.handle] and [Json.to_string] (what [Engine.handle_line] does
   for a well-formed line), each timed, and whether the request missed the
   cache.  Every [pause_every] requests, between two timed ones, the
   meter takes reference samples.  With a recorder the backend's [find]
   and each [Engine.handle] run under spans. *)
let pass ~pool ~lines ~meter ?rec_ emb =
  let span name ?request f =
    match rec_ with
    | Some r -> Spans.with_span r ~adopt:true ?request name f
    | None -> f ()
  in
  let backend =
    let b = Repro_core.Backend.default () in
    { b with find = (fun ?rounds cfg -> span "separator.find" (fun () -> b.find ?rounds cfg)) }
  in
  let engine, create_s =
    Clock.time (fun () -> Engine.create ~backend ~cache_capacity ~pool emb)
  in
  let k = Array.length lines in
  let parse = Array.make k 0.0 and handle = Array.make k 0.0
  and encode = Array.make k 0.0 and missed = Array.make k false in
  let responses =
    Array.mapi
      (fun i l ->
        if i mod pause_every = 0 then Reference.pause meter;
        let m0 = cache_misses engine in
        let t0 = Clock.now () in
        let req = Json.of_string l in
        let t1 = Clock.now () in
        let resp = span "serve.handle" ~request:i (fun () -> Engine.handle engine req) in
        let t2 = Clock.now () in
        let out = Json.to_string resp in
        let t3 = Clock.now () in
        parse.(i) <- t1 -. t0;
        handle.(i) <- t2 -. t1;
        encode.(i) <- t3 -. t2;
        missed.(i) <- cache_misses engine > m0;
        out)
      lines
  in
  { create_s; responses; parse; handle; encode; missed }

let service p i = p.parse.(i) +. p.handle.(i) +. p.encode.(i)

(* Untraced passes per jobs setting; their median stream time is the
   reported one, so one slow spell of the host does not set it. *)
let replay_passes = 3

(* The in-process reference for one jobs setting: [replay_passes] passes,
   each on a fresh engine and a compacted heap.  Every pass must give the
   first pass's responses.  With [~trace] a traced pass follows; its time
   over the untraced passes' median is the tracing overhead. *)
let replay ~seed ~seconds ~jobs ~trace =
  Repro_baseline.Backends.ensure ();
  let s = stream ~seed ~seconds in
  let emb = instance () in
  let lines = all_lines s in
  let nwarm = Array.length s.warm and count = Array.length s.lines in
  let stream_time p =
    List.fold_left (fun a i -> a +. service p (nwarm + i)) 0.0 (List.init count Fun.id)
  in
  let meter = Reference.meter () in
  Pool.with_pool ~jobs @@ fun pool ->
  let passes =
    List.init replay_passes (fun _ ->
        Gc.compact ();
        let p, wall, steal = Perfbench.Host.time (fun () -> pass ~pool ~lines ~meter emb) in
        let wall = wall -. Reference.take_paused meter in
        (* Steal cannot be split per request at 10 ms resolution: the
           stream's time loses the pass's steal share. *)
        (p, stream_time p, stream_time p *. steal /. wall))
  in
  (* Taken before the traced pass, whose pauses would add samples. *)
  let speed = Reference.speed meter in
  let p, _, _ = List.hd passes in
  let rss_mb = Perfbench.Proc.vm_hwm_mb () in
  let median f = Perfbench.Stats.median (Array.of_list (List.map f passes)) in
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 passes in
  let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a)) in
  let same q = q.responses = p.responses in
  let traced, traced_same =
    if not trace then ([], true)
    else begin
      let rec_ = Spans.create () in
      Gc.compact ();
      let t = pass ~pool ~lines ~meter ~rec_ emb in
      let all = Spans.spans rec_ in
      let intervals name =
        List.filter_map
          (fun sp ->
            if sp.Spans.name = name then Some (sp.Spans.start_ns, sp.Spans.stop_ns)
            else None)
          all
      in
      let covered name =
        Spans.seconds (Spans.covered ~lo:Int64.min_int ~hi:Int64.max_int (intervals name))
      in
      let find = Spans.by_name all "separator.find" in
      ( [
          ( "overhead_share",
            Json.Float ((stream_time t /. median (fun (_, raw, _) -> raw)) -. 1.0) );
          (* The share of [Engine.handle] time spent in the backend's
             [find]; the rest is the engine's own code. *)
          ("named_share", Json.Float (covered "separator.find" /. covered "serve.handle"));
          ("find_s", Json.Float find.Spans.total_s);
          ("find_calls", Json.Int find.Spans.calls);
          ("spans", Spans.to_json all);
        ],
        same t )
    end
  in
  Json.Obj
    ([
       ("create_s", Json.Float p.create_s);
       (* Steal-free and host-normalized. *)
       ("stream_s", Json.Float (speed *. median (fun (_, raw, steal) -> raw -. steal)));
       ("speed", Json.Float speed);
       ("raw_s", Json.Float (sum (fun (_, raw, _) -> raw)));
       ("steal_s", Json.Float (sum (fun (_, _, steal) -> steal)));
       ( "same",
         Json.Bool (traced_same && List.for_all (fun (q, _, _) -> same q) passes) );
       ("responses", Json.List (Array.to_list (Array.map (fun r -> Json.String r) p.responses)));
       ("parse", floats p.parse);
       ("handle", floats p.handle);
       ("encode", floats p.encode);
       ("missed", Json.List (Array.to_list (Array.map (fun b -> Json.Bool b) p.missed)));
       ("rss_mb", Json.Float rss_mb);
     ]
    @ traced)

(* ------------------------------------------------------------------ *)
(* Daemon and client                                                    *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

type daemon = { pid : int; socket : string }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* Spawn the daemon and wait until its socket accepts a connection; the
   elapsed time (which includes [Engine.create]) is a set-up sample. *)
let spawn ~exe ~socket =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let steal0 = Perfbench.Host.steal_s () in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process exe
      [|
        exe; "--socket"; socket; "--family"; family; "-n"; string_of_int n;
        "--seed"; string_of_int instance_seed; "--cache";
        string_of_int cache_capacity; "--jobs"; string_of_int daemon_jobs;
      |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let rec wait_ready tries =
    match connect socket with
    | Some fd -> fd
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "serve.exe exited before accepting connections");
      if tries = 0 then failwith "serve.exe did not accept within 60 s";
      Unix.sleepf 0.001;
      wait_ready (tries - 1)
  in
  let fd = wait_ready 60_000 in
  let ready_s = Clock.now () -. t0 -. (Perfbench.Host.steal_s () -. steal0) in
  ({ pid; socket }, fd, ready_s)

(* Buffered line reader over the connection. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let pop_lines r =
  let s = Buffer.contents r.buf in
  let rec split acc start =
    match String.index_from_opt s start '\n' with
    | Some i -> split (String.sub s start (i - start) :: acc) (i + 1)
    | None ->
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s start (String.length s - start);
      List.rev acc
  in
  split [] 0

let fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> failwith "daemon closed the connection"
  | k -> Buffer.add_subbytes r.buf r.chunk 0 k

let rec read_line r =
  match pop_lines r with
  | [ l ] -> l
  | [] ->
    fill r;
    read_line r
  | _ -> failwith "unexpected pipelined response"

let request r l =
  write_all r.fd (l ^ "\n");
  read_line r

type load = {
  responses : string array;  (* warm, stream, stats — in order *)
  sent : float array;
  completed : float array;
  due_abs : float array;
  queued : bool array;  (* another request was outstanding at send time *)
  wall : float;  (* first due time to last completion *)
}

(* Waits shorter than this are spun rather than slept in [select], so the
   generator's own lateness stays far below a hit's latency. *)
let spin_window = 0.0005

let drive r s =
  let warm = Array.map (request r) s.warm in
  let count = Array.length s.lines in
  let sent = Array.make count 0.0 and completed = Array.make count 0.0 in
  let queued = Array.make count false in
  let responses = Array.make count "" in
  let start = Clock.now () +. 0.01 in
  let due_abs = Array.map (fun d -> start +. d) s.due in
  let next = ref 0 and received = ref 0 in
  while !received < count do
    let now = Clock.now () in
    if !next < count && now >= due_abs.(!next) then begin
      queued.(!next) <- !next > !received;
      write_all r.fd (s.lines.(!next) ^ "\n");
      sent.(!next) <- Clock.now ();
      incr next
    end
    else begin
      let wait =
        if !next < count then
          let gap = due_abs.(!next) -. now in
          if gap > spin_window then gap -. spin_window else 0.0
        else 1.0
      in
      match Unix.select [ r.fd ] [] [] wait with
      | [], _, _ -> ()
      | _ ->
        fill r;
        let t = Clock.now () in
        List.iter
          (fun l ->
            if !received >= !next then failwith "response without request";
            responses.(!received) <- l;
            completed.(!received) <- t;
            incr received)
          (pop_lines r)
    end
  done;
  let wall = completed.(count - 1) -. due_abs.(0) in
  let stats = request r s.stats_line in
  {
    responses = Array.concat [ warm; responses; [| stats |] ];
    sent;
    completed;
    due_abs;
    queued;
    wall;
  }

let stop d fd =
  (try
     let r = reader fd in
     ignore (request r {|{"op":"shutdown"}|})
   with Unix.Unix_error _ | Failure _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)
