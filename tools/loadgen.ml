(* Closed-loop load generator for the serve daemon.

     loadgen --socket /tmp/repro-serve.sock --connections 2 --requests 120 \
             --seed 0 --out loadgen-e19.json --shutdown

   Drives the seed-deterministic Workload mix over N connections (request
   i goes to connection i mod N; each connection keeps exactly one request
   outstanding), measures per-request wall latency, then fetches the
   daemon's deterministic stats document.  With --out, writes a
   BENCH-shaped JSON whose e19 "load" metrics entry is exactly that stats
   document — the file tools/bench_diff.exe gates against BENCH_8.json in
   the serve-smoke CI job.  Exits 1 if any request fails, a query class
   goes unanswered, or the cache records zero hits. *)

module Json = Repro_trace.Json
module W = Repro_serve.Workload

let fail_usage () =
  prerr_endline
    "usage: loadgen [--socket PATH] [--connections N] [--requests K] \
     [--seed S] [--n N] [--out FILE] [--shutdown]";
  exit 2

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let pop_line buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear buf;
    Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let read_line_blocking fd buf =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match pop_line buf with
    | Some line -> line
    | None -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> failwith "connection closed by daemon"
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ())
  in
  go ()

let line r = Json.to_string (W.to_json r) ^ "\n"

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable queue : W.request list;
  mutable inflight : W.request option; (* the outstanding request *)
  mutable sent_at : float;
}

let send_next c =
  match c.queue with
  | [] -> c.inflight <- None
  | r :: rest ->
    c.queue <- rest;
    c.inflight <- Some r;
    c.sent_at <- Unix.gettimeofday ();
    write_all c.fd (line r)

let () =
  let socket = ref "/tmp/repro-serve.sock" in
  let connections = ref 2 in
  let requests = ref W.canonical_requests in
  let seed = ref W.canonical_mix_seed in
  let n = ref W.canonical_n in
  let out = ref None in
  let shutdown = ref false in
  let argc = Array.length Sys.argv in
  let i = ref 1 in
  let int_opt r =
    if !i + 1 >= argc then fail_usage ();
    (match int_of_string_opt Sys.argv.(!i + 1) with
    | Some v -> r := v
    | None -> fail_usage ());
    incr i
  in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--socket" when !i + 1 < argc ->
      socket := Sys.argv.(!i + 1);
      incr i
    | "--connections" -> int_opt connections
    | "--requests" -> int_opt requests
    | "--seed" -> int_opt seed
    | "--n" -> int_opt n
    | "--out" when !i + 1 < argc ->
      out := Some Sys.argv.(!i + 1);
      incr i
    | "--shutdown" -> shutdown := true
    | _ -> fail_usage ());
    incr i
  done;
  let c_count = max 1 !connections in
  let mix = W.mix ~seed:!seed ~n:!n ~count:!requests in
  let conns =
    Array.init c_count (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX !socket);
        { fd; buf = Buffer.create 256; queue = []; inflight = None;
          sent_at = 0.0 })
  in
  List.iteri
    (fun idx r ->
      let c = conns.(idx mod c_count) in
      c.queue <- c.queue @ [ r ])
    mix;
  let latencies = W.latencies () in
  let failed = ref 0 in
  let t0 = Unix.gettimeofday () in
  Array.iter send_next conns;
  let chunk = Bytes.create 4096 in
  let active () =
    Array.to_list conns |> List.filter (fun c -> c.inflight <> None)
  in
  let rec loop () =
    match active () with
    | [] -> ()
    | live ->
      let fds = List.map (fun c -> c.fd) live in
      let ready, _, _ = Unix.select fds [] [] 10.0 in
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd = fd) live in
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "connection closed by daemon mid-load"
          | k -> (
            Buffer.add_subbytes c.buf chunk 0 k;
            match pop_line c.buf with
            | None -> ()
            | Some line ->
              let dt = Unix.gettimeofday () -. c.sent_at in
              Option.iter
                (fun r -> W.record_latency latencies r dt)
                c.inflight;
              (match Json.member "ok" (Json.of_string line) with
              | Some (Json.Bool true) -> ()
              | _ ->
                incr failed;
                Printf.eprintf "request failed: %s\n" line);
              send_next c))
        ready;
      loop ()
  in
  loop ();
  let t1 = Unix.gettimeofday () in
  (* One stats fetch over connection 0 — the deterministic document the
     CI gate compares. *)
  let c0 = conns.(0) in
  write_all c0.fd (line W.Stats);
  let stats = Json.of_string (read_line_blocking c0.fd c0.buf) in
  if !shutdown then begin
    write_all c0.fd (line W.Shutdown);
    ignore (read_line_blocking c0.fd c0.buf)
  end;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  (* Report. *)
  let wall = t1 -. t0 in
  let total = !requests in
  Printf.printf "connections : %d\nrequests    : %d\nwall        : %.3fs\n"
    c_count total wall;
  if wall > 0.0 then
    Printf.printf "throughput  : %.1f queries/sec\n"
      (float_of_int total /. wall);
  Printf.printf "%-12s %8s %9s %9s %9s\n" "class" "count" "mean(ms)"
    "p50(ms)" "p99(ms)";
  let summary = W.latency_summary latencies in
  List.iter
    (fun (l : W.latency_summary) ->
      Printf.printf "%-12s %8d %9.2f %9.2f %9.2f\n" l.op l.count
        (1000.0 *. l.mean) (1000.0 *. l.p50) (1000.0 *. l.p99))
    summary;
  let cache_hits =
    match Option.bind (Json.member "cache" stats) (Json.member "hits") with
    | Some (Json.Int h) -> h
    | _ -> -1
  in
  Printf.printf "cache hits  : %d\n" cache_hits;
  (* The acceptance assertions: every class answered, repeats hit. *)
  List.iter
    (fun (l : W.latency_summary) ->
      if l.count = 0 then begin
        Printf.eprintf "no %s responses in the mix\n" l.op;
        incr failed
      end)
    summary;
  if cache_hits <= 0 then begin
    Printf.eprintf "cache recorded no hits on the repeated-root mix\n";
    incr failed
  end;
  (match !out with
  | None -> ()
  | Some path ->
    let doc =
      Json.Obj
        [
          ("jobs", Json.Int c_count);
          ( "experiments",
            Json.List
              [
                Json.Obj
                  [
                    ("name", Json.String "e19");
                    ("metrics", Json.Obj [ ("load", stats) ]);
                  ];
              ] );
        ]
    in
    let oc = open_out path in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote       : %s\n" path);
  if !failed > 0 then exit 1
