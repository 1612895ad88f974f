(* The command-line vocabulary the three binaries share (repro, repro-serve,
   fuzz): the instance, backend, jobs, cutoff and trace terms, the
   name checks, and the exit-code contract

     0  success
     1  the computed result failed its check
     2  bad input or usage (one line on stderr)
     3  the screen rejected the instance (verdict and replay spec on stderr)

   Every argv value is judged here before any work starts, so a bad name
   or out-of-range number exits 2 instead of surfacing as an uncaught
   exception deep in the library. *)

open Cmdliner
open Repro_embedding
open Repro_core
module Instance = Repro_testkit.Instance

(* ------------------------------------------------------------------ *)
(* Exit codes                                                           *)
(* ------------------------------------------------------------------ *)

let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"when the computed result fails its check.";
      info 2 ~doc:"on bad input or usage (one line on standard error).";
      info 3
        ~doc:
          "when the screen rejects the instance (the verdict and a replay \
           spec on standard error).";
    ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let finish ok = exit (if ok then 0 else 1)

let check_name ~what ~known name =
  if not (List.mem name known) then
    fail "unknown %s %s (known: %s)" what name (String.concat ", " known)

let or_screen_reject f =
  try f ()
  with Screen.Rejected_input { entry; verdict; spec } ->
    Printf.eprintf "screen rejected at %s: %s\n  replay: %s\n" entry
      (Screen.verdict_to_string verdict)
      spec;
    exit 3

(* Cmdliner's own parse errors (unknown option, malformed integer) are
   usage errors too, so they share exit 2. *)
let eval cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)

(* ------------------------------------------------------------------ *)
(* Instance                                                             *)
(* ------------------------------------------------------------------ *)

type instance = { family : string; n : int; seed : int }

let families = Gen.all_family_names @ Instance.hostile_families

let instance ?(family = "tgrid") ?(n = 400) ?(seed = 1) () =
  let family =
    let doc =
      "Graph family (grid, tgrid, stacked, thinned, cycle, fan, rtree, path, \
       star, wheel; the hostile testkit families xchords1/xchords4/xchords16, \
       xrot and xunion build corrupted embeddings the screen rejects with \
       exit 3)."
    in
    Arg.(value & opt string family & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)
  and n =
    let doc = "Approximate number of vertices." in
    Arg.(value & opt int n & info [ "n" ] ~docv:"N" ~doc)
  and seed =
    let doc = "Generator seed." in
    Arg.(value & opt int seed & info [ "seed"; "s" ] ~docv:"SEED" ~doc)
  in
  Term.(const (fun family n seed -> { family; n; seed }) $ family $ n $ seed)

(* Generation only: the diameter is left to callers that print it, so a
   daemon start pays for it once, inside [Engine.create].  Generators
   reject sizes they cannot build (path and rtree at n = 0) with
   [Invalid_argument]. *)
let embedding { family; n; seed } =
  check_name ~what:"family" ~known:families family;
  if Instance.is_hostile family then
    Instance.hostile_embedded
      { Instance.family; n; seed; spanning = Repro_tree.Spanning.Bfs }
  else
    try Gen.by_family ~seed family ~n
    with Invalid_argument msg ->
      fail "cannot generate family %s at n = %d (%s)" family n msg

(* ------------------------------------------------------------------ *)
(* Backend, jobs, cutoff                                                *)
(* ------------------------------------------------------------------ *)

let resolve_backend name =
  Repro_baseline.Backends.ensure ();
  check_name ~what:"backend" ~known:(Backend.names ()) name;
  Backend.lookup name

let backend =
  let doc =
    "Separator backend: $(b,congest) (the distributed six-phase algorithm), \
     $(b,lt-level) (centralized BFS level), $(b,hn-cycle) (centralized \
     simple-cycle heuristic), $(b,random-sep) (randomized weight sampler \
     with deterministic fallback), or any client-registered name."
  in
  Term.(
    const resolve_backend
    $ Arg.(value & opt string "congest" & info [ "backend" ] ~docv:"NAME" ~doc))

let jobs =
  let doc =
    "Worker domains for part-parallel batches.  Defaults to \
     Domain.recommended_domain_count (), i.e. one per hardware thread; the \
     flat graph store is shared read-only across domains.  Output is \
     bit-identical for every value; 1 runs fully sequentially."
  in
  Arg.(
    value
    & opt int (Repro_util.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cutoff =
  let doc =
    "Centralized fast path: recursion parts with at most $(docv) vertices are \
     dispatched to the first registered centralized backend (lt-level) \
     instead of $(b,--backend).  0 disables the fast path."
  in
  Term.(
    const (fun k -> if k <= 0 then None else Some k)
    $ Arg.(value & opt int 0 & info [ "cutoff" ] ~docv:"N" ~doc))

(* ------------------------------------------------------------------ *)
(* Trace outputs                                                        *)
(* ------------------------------------------------------------------ *)

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let trace_metrics =
  let doc =
    "Write the run's aggregated per-span trace metrics JSON to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-metrics" ] ~docv:"FILE" ~doc)

type tracing = {
  summary : bool;
  chrome : string option;
  metrics : string option;
}

let tracing =
  let summary =
    let doc = "Print the span-tree summary of the run (structured tracing)." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  and chrome =
    let doc =
      "Write the run's trace as Chrome-trace (Perfetto) JSON to $(docv).  The \
       time axis is virtual (charged + executed rounds), so traces are \
       deterministic and diffable."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-chrome" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun summary chrome metrics -> { summary; chrome; metrics })
    $ summary $ chrome $ trace_metrics)

(* A tracer is allocated only when some trace output was requested, so the
   default path stays the zero-cost [None] pipeline end to end. *)
let tracer t =
  if t.summary || t.chrome <> None || t.metrics <> None then
    Some (Repro_trace.Trace.create ())
  else None

let emit_trace t tracer =
  Option.iter
    (fun tr ->
      if t.summary then Format.printf "@.%a@." Repro_trace.Trace.pp tr;
      Option.iter
        (fun path ->
          write_text_file path (Repro_trace.Trace.to_chrome_string tr);
          Printf.printf "chrome trace       : %s\n" path)
        t.chrome;
      Option.iter
        (fun path ->
          write_text_file path (Repro_trace.Trace.to_metrics_string tr);
          Printf.printf "metrics json       : %s\n" path)
        t.metrics)
    tracer
