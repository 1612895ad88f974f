(* Batch workloads: one entry-point call of the library, timed at jobs=1
   and jobs=2 in a fresh worker process.

   The worker generates its instance (a set-up sample), times the entry
   call until its budget is spent, checks every output, and with
   [~trace:true] adds one traced call per jobs setting: the benchmark's own
   spans around the backend record's [find]/[trim] (passed as [?backend]),
   around [Config.of_part] in a direct partition pipeline, plus the
   program's virtual charged-round trace through the ledger. *)

open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core
module Json = Repro_trace.Json
module Trace = Repro_trace.Trace
module Pool = Repro_util.Pool
module Spans = Perfbench.Spans
module Clock = Perfbench.Clock
module Host = Perfbench.Host
module Reference = Perfbench.Reference

type instance = {
  emb : Embedded.t;
  g : Graph.t;
  d : int;
  parts : int list list;  (* partition-grid1m only *)
}

(* Row bands of a side x side grid.  The seed moves each interior band
   boundary by at most two rows, so parts stay connected and near-equal
   while the instance changes with the seed. *)
let row_bands ~seed ~side ~bands =
  let rng = Repro_util.Rng.create seed in
  let cut b =
    if b = 0 || b = bands then b * side / bands
    else (b * side / bands) + Repro_util.Rng.int_in_range rng ~lo:(-2) ~hi:2
  in
  let cuts = Array.init (bands + 1) cut in
  List.init bands (fun b ->
      let lo = cuts.(b) and hi = cuts.(b + 1) in
      List.init ((hi - lo) * side) (fun i -> (lo * side) + i))

(* A run times several instances, so that how hard one seed's instance
   happens to be moves the figures little: the run's seed fixes the
   instance seeds, consecutive and disjoint between run seeds. *)
let instance_count = function
  | "dfs-tgrid" -> 20
  | "decompose-stacked" -> 8
  | _ -> 1

let instance_seeds workload ~seed =
  let k = instance_count workload in
  List.init k (fun i -> ((seed - 1) * k) + i + 1)

let generate_one workload ~seed =
  match workload with
  | "dfs-tgrid" -> Gen.grid_diag ~seed ~rows:60 ~cols:60 ()
  | "decompose-stacked" -> Gen.stacked_triangulation ~seed ~n:7_500 ()
  | "partition-grid1m" -> Gen.grid ~rows:1000 ~cols:1000
  | w -> invalid_arg ("Batch.generate_one: " ^ w)

let prepare_one workload ~seed emb =
  let g = Embedded.graph emb in
  let parts =
    if workload = "partition-grid1m" then row_bands ~seed ~side:1000 ~bands:32
    else []
  in
  { emb; g; d = Algo.diameter g; parts }

let decompose_cutoff = 4096

(* How far the traced partition pipeline's wall may stray from the real
   [find_partition] call before the run warns: the end-to-end time bound. *)
let copy_tolerance = 0.25

(* What one entry call produced: the exact outputs the cross-process
   checks compare, and the output's own validity verdict. *)
type outcome = {
  charged : float;
  hash : int;
  valid : unit -> bool;
  facts : (string * float) list;
}

let hash_ints = Repro_serve.Engine.hash_ints

(* The benchmark's probe on a traced call: its span recorder, the
   program's virtual trace, and a candidate counter for [find]. *)
type probe = { rec_ : Spans.t; tracer : Trace.t; candidates : int Atomic.t }

let wrap probe ~find_name (b : Backend.t) =
  match probe with
  | None -> b
  | Some p ->
    {
      b with
      find =
        (fun ?rounds cfg ->
          Spans.with_span p.rec_ find_name (fun () ->
              let r = b.find ?rounds cfg in
              if find_name = "separator.find" then
                ignore
                  (Atomic.fetch_and_add p.candidates
                     r.Separator.candidates_tried);
              r));
      trim =
        (fun ?rounds cfg sep ->
          Spans.with_span p.rec_ "separator.trim" (fun () ->
              b.trim ?rounds cfg sep));
    }

(* [Separator.find_partition]'s own pipeline, rebuilt from public calls
   so that [Config.of_part] and [Separator.find] can be timed per part.
   It must follow any change to [find_partition]: the traced run compares
   its outputs and its wall with the real call's. *)
let traced_partition p rounds pool inst =
  Spans.with_span p.rec_ "screen" (fun () ->
      Screen.require ~rounds ~entry:"Separator.find_partition" inst.emb);
  let tasks = Array.of_list (List.map Array.of_list inst.parts) in
  let cost = Array.fold_left (fun a m -> a + Array.length m) 0 tasks in
  let results =
    Pool.map ~trace:p.tracer ~label:"pool.separators" ~cost pool
      (fun members ->
        let cfg =
          Spans.with_span p.rec_ "config.of_part" (fun () ->
              Config.of_part ~members ~root:members.(0) inst.emb)
        in
        let local = Rounds.like rounds in
        let r =
          Spans.with_span p.rec_ "separator.find" (fun () ->
              Separator.find ~rounds:local cfg)
        in
        ignore (Atomic.fetch_and_add p.candidates r.Separator.candidates_tried);
        (cfg, r, Some local))
      tasks
  in
  Rounds.absorb_heaviest rounds (Array.map (fun (_, _, l) -> l) results);
  Array.to_list (Array.map (fun (cfg, r, _) -> (cfg, r)) results)

let partition_outcome rounds inst results =
  let global =
    List.map
      (fun (cfg, r) -> List.map (Config.to_global cfg) r.Separator.separator)
      results
  in
  {
    charged = Rounds.total rounds;
    hash = hash_ints (List.map hash_ints global);
    valid =
      (fun () ->
        List.length results = List.length inst.parts
        && List.for_all
             (fun (cfg, r) ->
               (Check.check_separator cfg r.Separator.separator).Check.valid)
             results);
    facts = [ ("parts", float_of_int (List.length results)) ];
  }

let entry_one workload inst ~pool ~probe =
  let tracer = Option.map (fun p -> p.tracer) probe in
  let rounds = Rounds.create ?trace:tracer ~n:(Graph.n inst.g) ~d:inst.d () in
  match workload with
  | "dfs-tgrid" ->
    let root = Embedded.outer inst.emb in
    let backend = wrap probe ~find_name:"separator.find" (Backend.default ()) in
    let r = Dfs.run ~rounds ~pool ~backend inst.emb ~root in
    {
      charged = Rounds.total rounds;
      hash = hash_ints (Array.to_list r.Dfs.parent);
      valid = (fun () -> Dfs.verify inst.emb ~root r);
      facts =
        [
          ("dfs.phases", float_of_int r.Dfs.phases);
          ("join.max_iterations", float_of_int r.Dfs.max_join_iterations);
        ];
    }
  | "decompose-stacked" ->
    let central =
      match Backend.centralized_default () with
      | Some b -> b
      | None -> failwith "no centralized backend registered"
    in
    let t =
      Decomposition.build ~rounds ~pool ~trim:true
        ~backend:(wrap probe ~find_name:"separator.find" (Backend.default ()))
        ~small_part_cutoff:decompose_cutoff
        ~small_backend:(wrap probe ~find_name:"separator.central" central)
        inst.emb
    in
    let sep =
      List.filter_map
        (fun v -> if t.Decomposition.separator.(v) then Some v else None)
        (List.init (Graph.n inst.g) Fun.id)
    in
    {
      charged = Rounds.total rounds;
      hash =
        hash_ints (hash_ints sep :: List.map hash_ints t.Decomposition.pieces);
      valid =
        (fun () -> Decomposition.check inst.emb ~piece_target:20 t);
      facts =
        [
          ("decomposition.levels", float_of_int t.Decomposition.levels);
          ( "decomposition.pieces",
            float_of_int (List.length t.Decomposition.pieces) );
        ];
    }
  | "partition-grid1m" ->
    let results =
      match probe with
      | None -> Separator.find_partition ~rounds ~pool inst.emb ~parts:inst.parts
      | Some p -> traced_partition p rounds pool inst
    in
    partition_outcome rounds inst results
  | w -> invalid_arg ("Batch.entry: " ^ w)

(* Facts that are a maximum over instances; the others are counts. *)
let maximal_facts = [ "join.max_iterations"; "decomposition.levels" ]

(* The entry call on every instance in turn, in one pool. *)
let entry ?(gap = ignore) workload insts ~pool ~probe =
  let os =
    List.map
      (fun inst ->
        gap ();
        entry_one workload inst ~pool ~probe)
      insts
  in
  let merge (k, v) (_, v') =
    (k, if List.mem k maximal_facts then Float.max v v' else v +. v')
  in
  {
    charged = List.fold_left (fun a o -> a +. o.charged) 0.0 os;
    hash = hash_ints (List.map (fun o -> o.hash) os);
    valid = (fun () -> List.for_all (fun o -> o.valid ()) os);
    facts =
      (match os with
      | [] -> []
      | o :: rest ->
        List.fold_left (fun acc o' -> List.map2 merge acc o'.facts) o.facts rest);
  }

(* ------------------------------------------------------------------ *)
(* Worker                                                               *)
(* ------------------------------------------------------------------ *)

let alloc_words (a : Gc.stat) (b : Gc.stat) =
  b.Gc.minor_words +. b.Gc.major_words -. b.Gc.promoted_words
  -. (a.Gc.minor_words +. a.Gc.major_words -. a.Gc.promoted_words)

let rec charged_named (s : Trace.span) name =
  if s.Trace.name = name then (Trace.totals s).Trace.charged
  else
    List.fold_left (fun a c -> a +. charged_named c name) 0.0 s.Trace.children

let num x = Json.Float x

(* Layer figures of one traced call, all in this worker's jobs setting;
   the orchestrator picks each from the setting where it means most. *)
let traced_layers probe ~screen_s ~wall ~jobs facts =
  let all = Spans.spans probe.rec_ in
  let entry_span =
    match List.find_opt (fun s -> s.Spans.name = "entry") all with
    | Some s -> s
    | None -> failwith "traced call recorded no entry span"
  in
  let named =
    [
      "separator.find"; "separator.trim"; "separator.central";
      "config.of_part"; "screen";
    ]
  in
  (* The part of the entry call that the benchmark's spans of named layers
     cover; the rest is the entry point's own code. *)
  let named_s =
    Spans.seconds
      (Spans.covered ~lo:entry_span.Spans.start_ns ~hi:entry_span.Spans.stop_ns
         (List.filter_map
            (fun s ->
              if List.mem s.Spans.name named then
                Some (s.Spans.start_ns, s.Spans.stop_ns)
              else None)
            (Spans.subtree all entry_span)))
  in
  let t name = Spans.by_name all name in
  let find = t "separator.find" and trim = t "separator.trim"
  and central = t "separator.central" and of_part = t "config.of_part" in
  let wrapped = [ find; trim; central; of_part ] in
  let busy = List.fold_left (fun a x -> a +. x.Spans.total_s) 0.0 wrapped in
  let calls = List.fold_left (fun a x -> a + x.Spans.calls) 0 wrapped in
  let off_caller =
    List.length
      (List.filter
         (fun s -> s.Spans.parent = entry_span.Spans.id
                   && s.Spans.domain <> entry_span.Spans.domain)
         all)
  in
  let root = Trace.root probe.tracer in
  let self_s = Spans.self_time all entry_span -. screen_s in
  [
    ("trace.named_share", named_s /. Spans.duration entry_span);
    ("config.of_part_s", of_part.Spans.total_s);
    ("config.of_part_calls", float_of_int of_part.Spans.calls);
    ("separator.find_s", find.Spans.total_s);
    ("separator.find_calls", float_of_int find.Spans.calls);
    ("separator.find_max_ms", 1000.0 *. find.Spans.max_s);
    ("separator.trim_s", trim.Spans.total_s);
    ("separator.trim_calls", float_of_int trim.Spans.calls);
    ("separator.central_s", central.Spans.total_s);
    ("separator.central_calls", float_of_int central.Spans.calls);
    ( "separator.candidates_per_find",
      if find.Spans.calls = 0 then 0.0
      else
        float_of_int (Atomic.get probe.candidates)
        /. float_of_int find.Spans.calls );
    ("separator.precompute_charged", charged_named root "sep.phase1-precompute");
    ("separator.verify_charged", charged_named root "sep.verify");
    ("join.charged", charged_named root "join");
    ("entry.self_s", self_s);
    ("pool.busy_share", busy /. (wall *. float_of_int jobs));
    ( "pool.worker_share",
      if calls = 0 then 0.0 else float_of_int off_caller /. float_of_int calls );
    ("pool.tasks", float_of_int (Trace.totals root).Trace.tasks);
  ]
  @ facts

let exact_json = function
  | Some (charged, hash) ->
    [
      ("charged", num charged);
      ("hash", Json.String (Printf.sprintf "%016x" hash));
    ]
  | None -> []

let call ?gap workload insts ~jobs ~probe =
  Pool.with_pool ~jobs @@ fun pool ->
  match entry ?gap workload insts ~pool ~probe with
  | o -> Some o
  | exception e ->
    Printf.eprintf "perfbench: %s call failed at jobs=%d: %s\n%!" workload jobs
      (Printexc.to_string e);
    None

(* One set-up: generating the instances and what the calls need from
   them, with a reference pause before each instance and after the last.
   Returns the instances, the generation time and words allocated alone,
   and the set-up's steal-free time without the pauses. *)
let timed_setup meter workload ~seed =
  let gen_s = ref 0.0 and gen_words = ref 0.0 in
  let one s =
    Reference.pause meter;
    let before = Gc.quick_stat () in
    let emb, g = Clock.time (fun () -> generate_one workload ~seed:s) in
    gen_words := !gen_words +. alloc_words before (Gc.quick_stat ());
    gen_s := !gen_s +. g;
    prepare_one workload ~seed:s emb
  in
  ignore (Reference.take_paused meter);
  let insts, wall, steal =
    Host.time (fun () ->
        let insts = List.map one (instance_seeds workload ~seed) in
        Reference.pause meter;
        insts)
  in
  (insts, (!gen_s, !gen_words), wall -. steal -. Reference.take_paused meter)

(* Set-up samples a fresh process takes; with the timing worker's own
   the run has [setup_samples + 1], and reports their median. *)
let setup_samples = 2

(* A fresh process setting up [setup_samples] times: cold set-up samples,
   host-normalized with the reference samples taken between them. *)
let setup_only ~workload ~seed =
  let meter = Reference.meter () in
  let samples =
    List.init setup_samples (fun _ ->
        let _, _, s = timed_setup meter workload ~seed in
        s)
  in
  let speed = Reference.speed meter in
  Json.Obj [ ("setup_s", Json.List (List.map (fun s -> num (s *. speed)) samples)) ]

(* A fresh process making one call at [jobs]: that setting's own peak RSS,
   and its exact outputs for the cross-process check. *)
let single ~workload ~seed ~jobs =
  Repro_baseline.Backends.ensure ();
  let insts =
    List.map
      (fun s -> prepare_one workload ~seed:s (generate_one workload ~seed:s))
      (instance_seeds workload ~seed)
  in
  let o = call workload insts ~jobs ~probe:None in
  let rss_mb = Perfbench.Proc.vm_hwm_mb () in
  let ok = match o with Some o -> o.valid () | None -> false in
  Json.Obj
    ([ ("rss_mb", num rss_mb); ("failed", Json.Int (if ok then 0 else 1)) ]
    @ exact_json (Option.map (fun o -> (o.charged, o.hash)) o))

(* The timing process.  It generates the instances, makes a cold call at
   jobs=1 (as a fresh run of the entry point would) and reads its peak
   RSS, then alternates jobs=2 and jobs=1 calls until [budget] seconds are
   spent: at least two pairs, so each setting has at least two warm calls.
   Alternating spreads both settings' samples over the whole run, so a
   slow spell of the host does not land on one setting only.  Each call
   gets its own pool, so jobs=1 calls run on a single domain, and starts
   from a compacted heap.  With [~trace] an untraced and a traced call per
   setting follow. *)
let worker ~workload ~seed ~budget ~trace =
  Repro_baseline.Backends.ensure ();
  let meter = Reference.meter () in
  let insts, (gen_s, gen_words), setup_s = timed_setup meter workload ~seed in
  (* Each timed call keeps its jobs, its wall time without the reference
     pauses, and the steal within it.  The cold call has no pauses, so its
     GC deltas are the program's alone. *)
  let timed = ref [] in
  let time_call ?(pauses = true) jobs =
    ignore (Reference.take_paused meter);
    let gap = if pauses then fun () -> Reference.pause meter else ignore in
    let o, wall, steal =
      Host.time (fun () -> call ~gap workload insts ~jobs ~probe:None)
    in
    timed := (jobs, wall -. Reference.take_paused meter, steal) :: !timed;
    o
  in
  let g0 = Gc.quick_stat () in
  let first = time_call ~pauses:false 1 in
  let g1 = Gc.quick_stat () in
  (* Read before the output checks, which allocate on their own. *)
  let rss_mb = Perfbench.Proc.vm_hwm_mb () in
  let attempted = ref 1 in
  let failed = ref (match first with Some o when o.valid () -> 0 | _ -> 1) in
  let exact = Option.map (fun o -> (o.charged, o.hash)) first in
  let same o =
    match (o, exact) with
    | Some o, Some e -> (o.charged, o.hash) = e
    | _ -> false
  in
  let count j = List.length (List.filter (fun (j', _, _) -> j' = j) !timed) in
  let t0 = Clock.now () in
  let continue () =
    let k = List.length !timed - 1 and spent = Clock.now () -. t0 in
    count 1 < 3 || count 2 < 2
    || (k < 64 && spent +. (2.0 *. spent /. float_of_int (max 1 k)) <= budget)
  in
  while continue () do
    List.iter
      (fun jobs ->
        Gc.compact ();
        let o = time_call jobs in
        incr attempted;
        if not (same o) then incr failed)
      [ 2; 1 ]
  done;
  (* Steal-free, host-normalized times of the warm calls: the cold first
     call at jobs=1 gave the peak RSS and the GC deltas and is not a timing
     sample. *)
  let speed = Reference.speed meter in
  let walls jobs =
    List.filter_map
      (fun (j, w, st) -> if j = jobs then Some (num ((w -. st) *. speed)) else None)
      (List.tl (List.rev !timed))
  in
  (* The tracing overhead compares the traced call with an untraced call
     made right before it, so host drift over the run does not enter.  On
     partition-grid1m the untraced call is the real [find_partition] and the
     traced one its rebuilt pipeline, so a large gap also means the rebuilt
     pipeline no longer follows [find_partition]. *)
  let layers jobs ~screen_s =
    let checked_call probe =
      Gc.compact ();
      let run () = call workload insts ~jobs ~probe in
      let o, wall =
        Clock.time (fun () ->
            match probe with
            | None -> run ()
            | Some p -> Spans.with_span p.rec_ ~adopt:true "entry" run)
      in
      incr attempted;
      if not (same o) then incr failed;
      (o, wall)
    in
    let _, real = checked_call None in
    let probe =
      {
        rec_ = Spans.create ();
        tracer = Trace.create ~root:"perfbench" ();
        candidates = Atomic.make 0;
      }
    in
    let o, wall = checked_call (Some probe) in
    let overhead = (wall /. real) -. 1.0 in
    if workload = "partition-grid1m" && Float.abs overhead > copy_tolerance then
      Printf.eprintf
        "perfbench: warning: traced partition pipeline took %.3f s against \
         %.3f s for find_partition at jobs=%d; the rebuilt pipeline may no \
         longer follow find_partition\n%!"
        wall real jobs;
    ( ("trace.overhead_share", overhead)
      :: (match o with
         | Some o -> traced_layers probe ~screen_s ~wall ~jobs o.facts
         | None -> []),
      Spans.spans probe.rec_ )
  in
  let traced =
    if not trace then []
    else begin
      let screened, screen_s =
        Clock.time (fun () ->
            List.map
              (fun inst ->
                let rounds = Rounds.create ~n:(Graph.n inst.g) ~d:inst.d () in
                (Screen.check ~rounds inst.emb, Rounds.total rounds))
              insts)
      in
      List.iter (fun (v, _) -> if not (Screen.accepted v) then incr failed) screened;
      let screen_charged = List.fold_left (fun a (_, c) -> a +. c) 0.0 screened in
      let l1, spans1 = layers 1 ~screen_s in
      let l2, spans2 = layers 2 ~screen_s in
      let common =
        [
          ("gen.s", gen_s);
          ("gen.alloc_mw", gen_words /. 1e6);
          ("screen.s", screen_s);
          ("screen.charged", screen_charged);
          ("gc.minor_mw", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
          ("gc.major_mw", (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6);
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
        ]
      in
      let obj l = Json.Obj (List.map (fun (k, v) -> (k, num v)) l) in
      [
        ("layers1", obj (common @ l1));
        ("layers2", obj l2);
        ("spans", Json.Obj [ ("jobs1", Spans.to_json spans1); ("jobs2", Spans.to_json spans2) ]);
      ]
    end
  in
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 !timed in
  Json.Obj
    ([
       ("setup_s", num (setup_s *. speed));
       ("speed", num speed);
       ("walls1", Json.List (walls 1));
       ("walls2", Json.List (walls 2));
       ("raw_s", num (sum (fun (_, w, _) -> w)));
       ("steal_s", num (sum (fun (_, _, st) -> st)));
       ("attempted", Json.Int !attempted);
       ("failed", Json.Int !failed);
       ("rss_mb", num rss_mb);
     ]
    @ traced @ exact_json exact)
