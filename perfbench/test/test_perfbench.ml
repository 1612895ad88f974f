(* The benchmark's own arithmetic: span self time, nearest-rank
   percentiles, open-loop lateness, host steal and speed, and the command
   line's refusal of an unknown workload. *)

open Perfbench

let span ?(parent = -1) ?(domain = 0) id a b =
  {
    Spans.id;
    name = "s" ^ string_of_int id;
    parent;
    domain;
    request = -1;
    start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b;
  }

let ns = Alcotest.testable (fun f x -> Fmt.pf f "%Ld" x) Int64.equal
let secs = Alcotest.float 1e-12

let test_covered () =
  let c l = Spans.covered ~lo:0L ~hi:100L (List.map (fun (a, b) -> (Int64.of_int a, Int64.of_int b)) l) in
  Alcotest.check ns "empty" 0L (c []);
  Alcotest.check ns "disjoint" 30L (c [ (10, 20); (50, 70) ]);
  Alcotest.check ns "overlapping counted once" 40L (c [ (10, 40); (20, 50) ]);
  Alcotest.check ns "nested" 30L (c [ (10, 40); (15, 20) ]);
  Alcotest.check ns "touching" 20L (c [ (10, 20); (20, 30) ]);
  Alcotest.check ns "clipped to the parent" 30L (c [ (-10, 10); (80, 120) ])

let test_self_time () =
  (* Parent 0..100; two children that overlap on different domains
     (10..60 and 40..80) and a grandchild inside the first. *)
  let p = span 0 0 100 in
  let a = span ~parent:0 ~domain:0 1 10 60 in
  let b = span ~parent:0 ~domain:1 2 40 80 in
  let g = span ~parent:1 3 20 30 in
  let all = [ p; a; b; g ] in
  Alcotest.check secs "parent self = 100 - |[10,80]|" 30e-9 (Spans.self_time all p);
  Alcotest.check secs "grandchild does not count for the parent" 40e-9
    (Spans.self_time all a);
  Alcotest.check secs "leaf self = duration" 40e-9 (Spans.self_time all b);
  Alcotest.(check int) "subtree" 4 (List.length (Spans.subtree all p));
  (* Sequential tree: self times add up to the root's duration. *)
  let seq = [ span 0 0 100; span ~parent:0 1 10 40; span ~parent:1 2 15 25; span ~parent:0 3 50 90 ] in
  let total = List.fold_left (fun acc s -> acc +. Spans.self_time seq s) 0.0 seq in
  Alcotest.check secs "self times account for the root" 100e-9 total

let test_recorder () =
  let r = Spans.create () in
  Spans.with_span r ~adopt:true "entry" (fun () ->
      Spans.with_span r "inner" ignore;
      Domain.join (Domain.spawn (fun () -> Spans.with_span r "worker" ignore)));
  Spans.with_span r "after" ignore;
  let all = Spans.spans r in
  let find n = List.find (fun s -> s.Spans.name = n) all in
  let entry = find "entry" in
  Alcotest.(check int) "four spans" 4 (List.length all);
  Alcotest.(check int) "nested parent" entry.Spans.id (find "inner").Spans.parent;
  Alcotest.(check int) "adopted by the entry span" entry.Spans.id
    (find "worker").Spans.parent;
  Alcotest.(check bool) "worker ran on another domain" true
    ((find "worker").Spans.domain <> entry.Spans.domain);
  Alcotest.(check int) "adoption ends with the span" (-1) (find "after").Spans.parent;
  let t = Spans.by_name all "inner" in
  Alcotest.(check int) "by_name" 1 t.Spans.calls

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let p q = Stats.nearest_rank xs q in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50.0 (p 0.5).Stats.value;
  Alcotest.(check (float 0.)) "p99 of 1..100" 99.0 (p 0.99).Stats.value;
  Alcotest.(check (float 0.)) "p90 of 1..100" 90.0 (p 0.9).Stats.value;
  Alcotest.(check (float 0.)) "p100 is the max" 100.0 (p 1.0).Stats.value;
  Alcotest.(check int) "sample count" 100 (p 0.99).Stats.count;
  let one = Stats.nearest_rank [| 7.0 |] 0.99 in
  Alcotest.(check (float 0.)) "single sample" 7.0 one.Stats.value;
  Alcotest.(check int) "single sample count" 1 one.Stats.count;
  Alcotest.(check (float 0.)) "p50 of 3 is the middle" 2.0
    (Stats.nearest_rank [| 3.0; 1.0; 2.0 |] 0.5).Stats.value;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.nearest_rank: empty sample")
    (fun () -> ignore (Stats.nearest_rank [||] 0.5));
  Alcotest.(check (float 0.)) "even median" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_lateness () =
  let due = [| 0.0; 1.0; 2.0; 3.0 |] in
  (* The generator stalled over request 1 and sent 1 and 2 together. *)
  let sent = [| 0.0; 1.5; 2.0001; 2.9 |] in
  let completed = [| 0.1; 1.6; 2.2; 3.1 |] in
  let a = Openloop.account ~due ~sent ~completed in
  let f = Alcotest.float 1e-9 in
  Alcotest.check f "on time" 0.0 a.Openloop.late.(0);
  Alcotest.check f "late send" 0.5 a.Openloop.late.(1);
  Alcotest.check f "an early send is not negative lateness" 0.0 a.Openloop.late.(3);
  Alcotest.check f "latency counts from the due time" 0.6 a.Openloop.latency.(1);
  Alcotest.check f "latency of an early send" 0.1 a.Openloop.latency.(3);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Openloop.account: length mismatch")
    (fun () -> ignore (Openloop.account ~due ~sent:[||] ~completed))

let test_schedule () =
  let s = Openloop.schedule ~seed:3 ~rate:100.0 ~count:5000 in
  Alcotest.(check bool) "same seed, same schedule" true
    (s = Openloop.schedule ~seed:3 ~rate:100.0 ~count:5000);
  Alcotest.(check bool) "increasing" true
    (Array.for_all Fun.id (Array.init 4999 (fun i -> s.(i + 1) > s.(i))));
  let rate = 5000.0 /. s.(4999) in
  Alcotest.(check bool) "offered rate within 5%" true (rate > 95.0 && rate < 105.0)

let test_steal () =
  let stat =
    "cpu  900 0 90 9000 10 0 5 300 0 0\n\
     cpu0 400 0 40 4500 5 0 2 100 0 0\n\
     cpu1 500 0 50 4500 5 0 3 200 0 0\n\
     intr 12345\n"
  in
  Alcotest.(check (float 1e-9)) "mean of the per-CPU steal columns, in seconds" 1.5
    (Host.steal_of_stat stat);
  Alcotest.(check (float 0.)) "no CPU lines" 0.0 (Host.steal_of_stat "intr 1\n")

let test_reference () =
  Alcotest.(check (float 1e-12)) "nominal over the median sample"
    (Reference.nominal_s /. 0.004)
    (Reference.speed_of [ 0.006; 0.002; 0.004 ]);
  let m = Reference.meter () in
  Alcotest.(check (float 0.)) "nothing paused yet" 0.0 (Reference.take_paused m);
  Reference.pause m;
  let paused = Reference.take_paused m in
  Alcotest.(check bool) "a pause takes time" true (paused > 0.0);
  Alcotest.(check (float 0.)) "taking the paused time resets it" 0.0 (Reference.take_paused m);
  Alcotest.(check bool) "its samples give the speed" true (Reference.speed m > 0.0)

let run_main args =
  let ic, oc, ec = Unix.open_process_args_full "../bin/main.exe" (Array.of_list ("main.exe" :: args)) [||] in
  close_out oc;
  let out = In_channel.input_all ic and _err = In_channel.input_all ec in
  (out, Unix.close_process_full (ic, oc, ec))

let test_rejects_unknown () =
  List.iter
    (fun args ->
      let out, status = run_main args in
      Alcotest.(check string) "nothing on stdout" "" out;
      Alcotest.(check bool) "exit 2" true (status = Unix.WEXITED 2))
    [
      [ "--workload"; "dfs-tgird"; "--seed"; "1" ];
      [ "--workload"; "dfs-tgrid"; "--sede"; "1"; "--seconds"; "1" ];
      [ "--workload"; "dfs-tgrid"; "--seed"; "1" ];
      [ "--help" ];
      [];
    ]

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("stats", [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank ]);
      ( "openloop",
        [
          Alcotest.test_case "lateness" `Quick test_lateness;
          Alcotest.test_case "schedule" `Quick test_schedule;
        ] );
      ( "host",
        [
          Alcotest.test_case "steal" `Quick test_steal;
          Alcotest.test_case "reference speed" `Quick test_reference;
        ] );
      ("cli", [ Alcotest.test_case "unknown workload" `Quick test_rejects_unknown ]);
    ]
