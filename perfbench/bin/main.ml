(* The repository benchmark.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     bash perfbench/run.sh delta BEFORE AFTER

   Each workload runs in fresh worker processes (this executable, started
   again in its [worker], [setup], [single] or [replay] mode), so every
   peak-RSS reading is that process's own.  Human-readable lines come first; the last line of
   standard output is one JSON object with [correct], [attempted],
   [failed] and [metrics]: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1].  Full results, spans included, are
   also written under [.perfbench/] in the working directory. *)

module Json = Repro_trace.Json
module Stats = Perfbench.Stats

type workload = { name : string; default_seed : int; batch : bool }

let workloads =
  [
    { name = "dfs-tgrid"; default_seed = 1; batch = true };
    { name = "decompose-stacked"; default_seed = 1; batch = true };
    { name = "partition-grid1m"; default_seed = 1; batch = true };
    { name = "serve-mixed"; default_seed = 1; batch = false };
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seconds S [--seed N] [--trace 0|1]\n\
    \       main.exe delta BEFORE.json AFTER.json  (saved .perfbench/ results)\n"
    (String.concat "|" (List.map (fun w -> w.name) workloads));
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --key value pairs; anything else is an error. *)
let parse_flags args =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] args

let value key parse v =
  match parse v with Some x -> x | None -> die "bad value %S for --%s" v key

let flag flags key ~default parse =
  match List.assoc_opt key flags with None -> default | Some v -> value key parse v

let required flags key parse =
  match List.assoc_opt key flags with
  | None -> die "--%s is required" key
  | Some v -> value key parse v

let check_flags flags allowed =
  List.iter
    (fun (k, _) -> if not (List.mem k allowed) then die "unknown flag --%s" k)
    flags

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    die "unknown workload %S (known: %s)" name
      (String.concat ", " (List.map (fun w -> w.name) workloads))

(* ------------------------------------------------------------------ *)
(* Worker processes                                                     *)
(* ------------------------------------------------------------------ *)

let read_all fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* Run this executable again with [args]; its last stdout line is a JSON
   result.  The child is always waited for. *)
let run_child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let out = read_all rd in
  Unix.close rd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Json.of_string (last_line out)
  | _ ->
    failwith (Printf.sprintf "worker %s failed" (String.concat " " args))

let member_exn k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith ("result without field " ^ k)

let to_float = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> failwith "number expected"

let get_float k j = to_float (member_exn k j)
let get_int k j = match member_exn k j with Json.Int i -> i | _ -> failwith k

let get_list k j =
  match member_exn k j with Json.List l -> l | _ -> failwith (k ^ ": list")

let get_floats k j = Array.of_list (List.map to_float (get_list k j))

let get_layers k j =
  match member_exn k j with
  | Json.Obj l -> List.map (fun (k, v) -> (k, to_float v)) l
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

(* Metric names and units, as BENCHMARK.json declares them. *)
let declared =
  lazy
    (let doc =
       try Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
       with Sys_error e | Failure e -> die "BENCHMARK.json: %s" e
     in
     let metrics key =
       match Json.member key doc with
       | Some (Json.List l) ->
         List.filter_map
           (fun m ->
             match (Json.member "name" m, Json.member "unit" m) with
             | Some (Json.String n), Some (Json.String u) -> Some (n, u)
             | _ -> None)
           l
       | _ -> die "BENCHMARK.json: no %s list" key
     in
     (metrics "end_to_end", metrics "per_layer"))

let end_to_end () = fst (Lazy.force declared)
let per_layer () = snd (Lazy.force declared)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (* every metric measured *)
  notes : (string * string) list;  (* printed, not reported *)
  spans : Json.t;
}

let reference_hash w ~seed =
  match Json.of_string (In_channel.with_open_text "perfbench/reference.json" In_channel.input_all) with
  | exception Sys_error _ -> None
  | doc -> (
    match Json.member w doc with
    | Some entry when Json.member "seed" entry = Some (Json.Int seed) -> (
      match Json.member "hash" entry with Some (Json.String h) -> Some h | _ -> None)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Batch workloads                                                      *)
(* ------------------------------------------------------------------ *)

(* Share of the timed calls' wall time the hypervisor withheld. *)
let steal_share rs =
  let sum k = List.fold_left (fun a r -> a +. get_float k r) 0.0 rs in
  sum "steal_s" /. Float.max 1e-9 (sum "raw_s")

(* The timing process alternates jobs=1 and jobs=2 calls; one more fresh
   process gives a second cold set-up sample, and with [~trace] a fresh
   jobs=2 process gives that setting's own peak RSS. *)
let batch_run w ~seed ~seconds ~trace =
  let child mode extra =
    run_child ([ mode; "--workload"; w.name; "--seed"; string_of_int seed ] @ extra)
  in
  let main =
    child "worker"
      [ "--budget"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
  in
  let setups = [ child "setup" [] ] in
  let jobs2 = if trace then [ child "single" [ "--jobs"; "2" ] ] else [] in
  let exact r = (Json.member "hash" r, Json.member "charged" r) in
  let hash, charged = exact main in
  let cross_failures =
    List.length (List.filter (fun r -> exact r <> (hash, charged)) jobs2)
    + (match (reference_hash w.name ~seed, hash) with
      | Some h, Some (Json.String h1) when h <> h1 -> 1
      | Some _, None -> 1
      | _ -> 0)
  in
  let attempted = get_int "attempted" main + List.length jobs2 in
  let failed =
    List.fold_left (fun a r -> a + get_int "failed" r) 0 (main :: jobs2) + cross_failures
  in
  (* Steal-free and host-normalized by the worker. *)
  let walls1 = get_floats "walls1" main and walls2 = get_floats "walls2" main in
  let serial = Stats.median walls1 and wall = Stats.median walls2 in
  let speed = get_float "speed" main in
  let setup =
    get_float "setup_s" main
    :: List.concat_map (fun r -> Array.to_list (get_floats "setup_s" r)) setups
  in
  let rss1 = get_float "rss_mb" main in
  let e2e =
    [
      ("setup_s", Stats.median (Array.of_list setup));
      ("wall_s", wall);
      ("serial_s", serial);
      ("charged_rounds", (match charged with Some c -> to_float c | None -> 0.0));
      (* The jobs=1 process, read after its first call: with two domains
         the high-water mark moves with GC timing from run to run. *)
      ("peak_rss_mb", rss1);
    ]
  in
  (* Times and counts come from the jobs=1 traced call, the pool's figures
     from the jobs=2 one. *)
  let layers =
    if not trace then []
    else
      let l1 = get_layers "layers1" main and l2 = get_layers "layers2" main in
      let pool k = String.starts_with ~prefix:"pool." k in
      let self =
        match (w.name, List.assoc_opt "entry.self_s" l1) with
        | "dfs-tgrid", Some x -> [ ("dfs.self_s", x) ]
        | "decompose-stacked", Some x -> [ ("decomposition.self_s", x) ]
        | _ -> []
      in
      List.filter (fun (k, _) -> List.mem_assoc k (per_layer ()) && not (pool k)) l1
      @ self
      @ List.filter (fun (k, _) -> pool k) l2
      @ [
          ("pool.speedup", serial /. wall);
          ("rss.jobs1_mb", rss1);
          ("rss.jobs2_mb", get_float "rss_mb" (List.hd jobs2));
          ("host.steal_share", steal_share [ main ]);
          ("host.speed", speed);
        ]
  in
  let samples a = String.concat " " (List.map (Printf.sprintf "%.3f") (Array.to_list a)) in
  {
    correct = failed = 0;
    attempted;
    failed;
    values = e2e @ layers;
    notes =
      [
        ("calls at jobs=1 (s)", samples walls1);
        ("calls at jobs=2 (s)", samples walls2);
        ("set-up samples (s)", samples (Array.of_list setup));
        ("host speed (times above are scaled by it)", Printf.sprintf "%.3f" speed);
        ("host steal share", Printf.sprintf "%.3f" (steal_share [ main ]));
        ("output hash", (match hash with Some (Json.String h) -> h | _ -> "none"));
        ("cross-process checks failed", string_of_int cross_failures);
      ];
    spans = (match Json.member "spans" main with Some sp -> sp | None -> Json.List []);
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                          *)
(* ------------------------------------------------------------------ *)

let setup_spawns = 5

let serve_run ~seed ~seconds ~trace =
  let module S = Serve_mixed in
  let exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "serve.exe")) in
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  (* A relative socket path keeps clear of the sun_path length limit. *)
  let socket = Printf.sprintf ".perfbench/serve-%d.sock" (Unix.getpid ()) in
  let s = S.stream ~seed ~seconds in
  (* Set-up samples: the last daemon spawned serves the load. *)
  let meter = Perfbench.Reference.meter () in
  let spawn () =
    Perfbench.Reference.pause meter;
    S.spawn ~exe ~socket
  in
  let setup =
    Array.init (setup_spawns - 1) (fun _ ->
        let d, fd, ready = spawn () in
        S.stop d fd;
        ready)
  in
  let d, fd, ready = spawn () in
  Perfbench.Reference.pause meter;
  (* Host-normalized with the reference samples taken between spawns. *)
  let setup = Array.map (( *. ) (Perfbench.Reference.speed meter)) (Array.append setup [| ready |]) in
  let load, daemon_rss =
    Fun.protect
      ~finally:(fun () -> S.stop d fd)
      (fun () ->
        let load = S.drive (S.reader fd) s in
        (load, Perfbench.Proc.vm_hwm_mb ~pid:d.S.pid ()))
  in
  (* The daemon runs one domain, so the jobs=1 replay is its reference for
     per-request service times; only that replay is traced. *)
  let replay jobs ~trace =
    run_child
      [
        "replay"; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
        "--jobs"; string_of_int jobs; "--trace"; (if trace then "1" else "0");
      ]
  in
  let r1 = replay 1 ~trace in
  let r2 = replay 2 ~trace:false in
  let strings r = Array.of_list (List.map (function Json.String x -> x | _ -> "") (get_list "responses" r)) in
  let ref1 = strings r1 and ref2 = strings r2 in
  let total = Array.length load.S.responses in
  let ok_response resp =
    match Json.member "ok" (Json.of_string resp) with Some (Json.Bool true) -> true | _ -> false
  in
  let wrong =
    List.length
      (List.filter
         (fun i ->
           let resp = load.S.responses.(i) in
           not (i < Array.length ref1 && i < Array.length ref2 && resp = ref1.(i)
                && resp = ref2.(i) && ok_response resp))
         (List.init total Fun.id))
  in
  let passes_differ =
    List.length (List.filter (fun r -> Json.member "same" r <> Some (Json.Bool true)) [ r1; r2 ])
  in
  let nwarm = Array.length s.S.warm and count = Array.length s.S.lines in
  let attempted = nwarm + count + 1 in
  let failed = wrong + (attempted - total) + passes_differ in
  let stream a = Array.sub a nwarm count in
  let parse = stream (get_floats "parse" r1) and handle = stream (get_floats "handle" r1)
  and encode = stream (get_floats "encode" r1) in
  let service = Array.init count (fun i -> parse.(i) +. handle.(i) +. encode.(i)) in
  let missed =
    stream (Array.of_list (List.map (function Json.Bool b -> b | _ -> false) (get_list "missed" r1)))
  in
  let acct =
    Perfbench.Openloop.account ~due:load.S.due_abs ~sent:load.S.sent ~completed:load.S.completed
  in
  let select pred a = Array.of_list (List.filteri (fun i _ -> pred i) (Array.to_list a)) in
  let hit i = not missed.(i) in
  let hits = select hit acct.latency and misses = select (fun i -> missed.(i)) acct.latency in
  let ms x = 1000.0 *. x in
  let p a q = if Array.length a = 0 then 0.0 else (Stats.nearest_rank a q).Stats.value in
  let samples a = if Array.length a = 0 then 0 else (Stats.nearest_rank a 0.5).Stats.count in
  let stats = Json.of_string load.S.responses.(total - 1) in
  let cache k =
    match Option.bind (Json.member "cache" stats) (Json.member k) with
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let serial = get_float "stream_s" r1 and wall = get_float "stream_s" r2 in
  let e2e =
    [
      ("setup_s", Stats.median setup);
      ("wall_s", wall);
      ("serial_s", serial);
      ("charged_rounds", (match Json.member "charged_rounds" stats with Some v -> to_float v | None -> 0.0));
      ("peak_rss_mb", daemon_rss);
    ]
  in
  let latencies =
    [
      ("serve.hit_p50_ms", ms (p hits 0.5));
      ("serve.hit_p99_ms", ms (p hits 0.99));
      ("serve.miss_p50_ms", ms (p misses 0.5));
      ("serve.miss_p90_ms", ms (p misses 0.9));
      ("serve.completed_rps", float_of_int count /. load.S.wall);
      ("serve.hit_samples", float_of_int (samples hits));
      ("serve.miss_samples", float_of_int (samples misses));
    ]
  in
  let layers =
    if not trace then []
    else begin
      let idx pred = Array.of_list (List.filter pred (List.init count Fun.id)) in
      (* Transport: what a hit sent with nothing outstanding spends beyond
         its in-process service.  Queue: what is left of a hit's latency
         after service and the median transport. *)
      let transport =
        Array.map (fun i -> acct.latency.(i) -. service.(i)) (idx (fun i -> hit i && not load.S.queued.(i)))
      in
      let transport_med = if transport = [||] then 0.0 else Stats.median transport in
      let waits =
        Array.map (fun i -> Float.max 0.0 (acct.latency.(i) -. service.(i) -. transport_med)) (idx hit)
      in
      let queued_hits = Array.length (idx (fun i -> hit i && load.S.queued.(i))) in
      [
        ("serve.create_s", get_float "create_s" r1);
        ("serve.parse_us", 1e6 *. Stats.median parse);
        ("serve.encode_us", 1e6 *. Stats.median encode);
        ("serve.hit_service_us", 1e6 *. p (select hit handle) 0.5);
        ("serve.miss_service_ms", ms (p (select (fun i -> missed.(i)) handle) 0.5));
        ("serve.transport_us", 1e6 *. transport_med);
        ("serve.queue_ms", ms (p waits 0.99));
        ("serve.queued_hit_share", float_of_int queued_hits /. float_of_int (max 1 (Array.length hits)));
        ("serve.cache.hits", cache "hits");
        ("serve.cache.misses", cache "misses");
        ("serve.cache.evictions", cache "evictions");
        ("serve.cache.hit_ratio", cache "hits" /. Float.max 1.0 (cache "hits" +. cache "misses"));
        ("loadgen.late_p99_ms", ms (p acct.late 0.99));
        ("separator.find_s", get_float "find_s" r1);
        ("separator.find_calls", float_of_int (get_int "find_calls" r1));
        ("rss.jobs1_mb", get_float "rss_mb" r1);
        ("rss.jobs2_mb", get_float "rss_mb" r2);
        ("pool.speedup", serial /. wall);
        ("host.speed", get_float "speed" r1);
        ("trace.overhead_share", get_float "overhead_share" r1);
        ("trace.named_share", get_float "named_share" r1);
        ("host.steal_share", steal_share [ r1; r2 ]);
      ]
    end
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    values = e2e @ latencies @ layers;
    notes =
      [
        ("requests (warm + stream + stats)", Printf.sprintf "%d + %d + 1" nwarm count);
        ("responses differing from replay", string_of_int wrong);
        ("offered rate", Printf.sprintf "%g/s, %g%% fresh-key misses" S.rate (100.0 *. S.miss_share));
        ("host steal share (replays)", Printf.sprintf "%.3f" (steal_share [ r1; r2 ]));
        ( "host speed, jobs=1 / jobs=2 replay",
          Printf.sprintf "%.3f / %.3f" (get_float "speed" r1) (get_float "speed" r2) );
      ];
    spans = (match Json.member "spans" r1 with Some sp -> sp | None -> Json.List []);
  }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let unit_of k =
  match List.assoc_opt k (end_to_end ()) with
  | Some u -> u
  | None -> Option.value ~default:"" (List.assoc_opt k (per_layer ()))

let report w ~seed ~trace r =
  let reported = if trace then per_layer () else end_to_end () in
  Printf.printf "workload : %s (seed %d, %s)\n" w.name seed
    (if trace then "traced: per-layer metrics" else "untraced: end-to-end metrics");
  List.iter (fun (k, v) -> Printf.printf "  %-36s %s\n" k v) r.notes;
  List.iter
    (fun (k, v) -> Printf.printf "  %-36s %.6g %s\n" k v (unit_of k))
    r.values;
  Printf.printf "  %-36s %.6g (%d of %d)\n" "failed_share"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  let metrics =
    List.map
      (fun (k, u) ->
        let v = Option.value ~default:0.0 (List.assoc_opt k r.values) in
        (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
      reported
  in
  let summary =
    Json.Obj
      [
        ("correct", Json.Bool r.correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("metrics", Json.Obj metrics);
      ]
  in
  (try
     Out_channel.with_open_text
       (Printf.sprintf ".perfbench/%s-seed%d-trace%d.json" w.name seed (Bool.to_int trace))
       (fun oc ->
         output_string oc
           (Json.to_string
              (Json.Obj
                 [
                   ("workload", Json.String w.name);
                   ("seed", Json.Int seed);
                   ("summary", summary);
                   ( "all",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.values) );
                   ("spans", r.spans);
                 ]));
         output_char oc '\n')
   with Sys_error e -> Printf.eprintf "perfbench: not saved: %s\n" e);
  print_endline (Json.to_string summary)

(* ------------------------------------------------------------------ *)
(* Entry                                                                *)
(* ------------------------------------------------------------------ *)

let int_of s = int_of_string_opt s
let float_of s = float_of_string_opt s
let bool_of = function "0" -> Some false | "1" -> Some true | _ -> None

let emit j = print_endline (Json.to_string j)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ ("-h" | "--help" | "help") ] -> usage ()
  | "delta" :: rest -> (
    match rest with
    | [ a; b ] -> (
      try Delta_report.run a b with Sys_error e | Failure e -> die "delta: %s" e)
    | _ -> usage ())
  | "worker" :: rest ->
    let f = parse_flags rest in
    let w = find_workload (flag f "workload" ~default:"" Option.some) in
    emit
      (Batch.worker ~workload:w.name
         ~seed:(flag f "seed" ~default:w.default_seed int_of)
         ~budget:(required f "budget" float_of)
         ~trace:(flag f "trace" ~default:false bool_of))
  | "setup" :: rest ->
    let f = parse_flags rest in
    let w = find_workload (flag f "workload" ~default:"" Option.some) in
    emit (Batch.setup_only ~workload:w.name ~seed:(flag f "seed" ~default:w.default_seed int_of))
  | "single" :: rest ->
    let f = parse_flags rest in
    let w = find_workload (flag f "workload" ~default:"" Option.some) in
    emit
      (Batch.single ~workload:w.name
         ~seed:(flag f "seed" ~default:w.default_seed int_of)
         ~jobs:(flag f "jobs" ~default:2 int_of))
  | "replay" :: rest ->
    let f = parse_flags rest in
    emit
      (Serve_mixed.replay
         ~seed:(flag f "seed" ~default:1 int_of)
         ~seconds:(required f "seconds" float_of)
         ~jobs:(flag f "jobs" ~default:1 int_of)
         ~trace:(flag f "trace" ~default:false bool_of))
  | args ->
    let f = parse_flags args in
    check_flags f [ "workload"; "seed"; "seconds"; "trace" ];
    let w =
      match List.assoc_opt "workload" f with
      | Some n -> find_workload n
      | None -> die "--workload is required"
    in
    let seed = flag f "seed" ~default:w.default_seed int_of in
    let seconds = required f "seconds" float_of in
    if not (seconds > 0.0) then die "--seconds must be positive";
    let trace = flag f "trace" ~default:false bool_of in
    ignore (Lazy.force declared);
    (* Results, spans and the daemon's socket live here. *)
    if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
    let r =
      try
        if w.batch then batch_run w ~seed ~seconds ~trace
        else serve_run ~seed ~seconds ~trace
      with e -> die "%s: %s" w.name (Printexc.to_string e)
    in
    report w ~seed ~trace r;
    if not r.correct then exit 1
