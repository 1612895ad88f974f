(* Command-line driver.

     repro gen  --family tgrid --n 400 --seed 1
     repro sep  --family stacked --n 1000 --tree dfs --shrink
     repro dfs  --family tgrid --n 900 --root 17 --compare-awerbuch

   Families: grid tgrid stacked thinned cycle fan rtree path star wheel. *)

open Cmdliner
open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_congest
open Repro_core
open Repro_baseline

let tree_arg =
  let doc = "Spanning tree kind: bfs, dfs or random." in
  Arg.(value & opt string "bfs" & info [ "tree"; "t" ] ~docv:"KIND" ~doc)

let spanning_of_string seed = function
  | "bfs" -> Spanning.Bfs
  | "dfs" -> Spanning.Dfs
  | "random" -> Spanning.Random seed
  | other -> Cli.fail "unknown tree kind %s (known: bfs, dfs, random)" other

let edges_arg =
  let doc =
    "Load the graph from an edge-list file (one 'u v' pair per line; vertex \
     ids 0-based) instead of generating one; the embedding is computed with \
     the DMP planarity algorithm."
  in
  Arg.(value & opt (some string) None & info [ "edges" ] ~docv:"FILE" ~doc)

(* An edge list is untrusted input: every defect (missing file, malformed
   line, bad id, self-loop, no edges) exits 2 with one [file:line: reason]
   line on stderr before any graph is built.  Ids are dense and 0-based, so
   an id of at least 2m names a vertex no edge touches; rejecting it also
   keeps a two-line file from allocating a graph of 10^11 vertices. *)
let load_edge_list path =
  let fail = Cli.fail in
  let ic = try open_in path with Sys_error e -> fail "%s" e in
  let edges = ref [] and lineno = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       incr lineno;
       if line <> "" && line.[0] <> '#' then begin
         let id s =
           match int_of_string_opt s with
           | Some x when x >= 0 -> x
           | Some x -> fail "%s:%d: negative vertex id %d" path !lineno x
           | None -> fail "%s:%d: not a vertex id: %S" path !lineno s
         in
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ a; b ] ->
           let u = id a and v = id b in
           if u = v then fail "%s:%d: self-loop at vertex %d" path !lineno u;
           edges := (!lineno, u, v) :: !edges
         | _ -> fail "%s:%d: expected two vertex ids, got %S" path !lineno line
       end
     done
   with End_of_file -> close_in ic);
  let m = List.length !edges in
  if m = 0 then fail "%s: no edges" path;
  List.iter
    (fun (l, u, v) ->
      let x = max u v in
      if x >= 2 * m then
        fail "%s:%d: vertex id %d out of range (%d edges name at most %d vertices)"
          path l x m (2 * m))
    (List.rev !edges);
  let max_v = List.fold_left (fun a (_, u, v) -> max a (max u v)) 0 !edges in
  Graph.of_edges ~n:(max_v + 1) (List.map (fun (_, u, v) -> (u, v)) !edges)

(* Generate (or load) the instance and print its header. *)
let load inst edges =
  let emb =
    match edges with
    | None -> Cli.embedding inst
    | Some path -> (
      let g = load_edge_list path in
      match Planarity.embed g with
      | None -> Cli.fail "input graph is not planar"
      | Some rot -> Embedded.make ~name:(Filename.basename path) g rot)
  in
  let g = Embedded.graph emb in
  let d = Algo.diameter g in
  Printf.printf "instance : %s\n" (Embedded.name emb);
  Printf.printf "n        : %d\nm        : %d\nD        : %d\n" (Graph.n g)
    (Graph.m g) d;
  (emb, g, d)

let instance = Cli.instance ()

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run inst edges =
    let emb, g, _ = load inst edges in
    Printf.printf "planar embedding valid : %b\n" (Embedded.is_valid emb);
    Printf.printf "screen verdict         : %s\n"
      (Screen.verdict_to_string (Screen.check emb));
    Printf.printf "connected              : %b\n" (Algo.is_connected g);
    (match Embedded.coords emb with
    | Some coords ->
      Printf.printf "straight-line drawing  : %b\n"
        (Geometry.straight_line_planar g coords)
    | None -> Printf.printf "straight-line drawing  : (no coordinates)\n");
    Printf.printf "outer-face vertex      : %d\n" (Embedded.outer emb)
  in
  Cmd.v
    (Cmd.info "gen" ~exits:Cli.exits
       ~doc:"Generate or load a planar instance and validate it")
    Term.(const run $ instance $ edges_arg)

(* ------------------------------------------------------------------ *)
(* sep                                                                  *)
(* ------------------------------------------------------------------ *)

let shrink_arg =
  let doc = "Also apply the balanced-trim post-pass." in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let verbose_arg =
  let doc = "Print the separator's vertices." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let svg_arg =
  let doc = "Write an SVG drawing with the separator highlighted." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let sep_cmd =
  let run inst edges tree b shrink verbose svg tracing =
    let spanning = spanning_of_string inst.Cli.seed tree in
    let emb, g, d = load inst edges in
    let tracer = Cli.tracer tracing in
    let rounds = Rounds.create ?trace:tracer ~n:(Graph.n g) ~d () in
    Cli.or_screen_reject @@ fun () ->
    (* Screen before Config.of_embedded: a corrupted rotation must die
       with a verdict, not crash the spanning-tree build. *)
    Screen.require ~rounds ~entry:"sep" emb;
    let cfg = Config.of_embedded ~spanning emb in
    let r = b.Backend.find ~rounds cfg in
    let verdict = Check.check_separator cfg r.Separator.separator in
    let ok = Backend.accepts b verdict in
    Printf.printf "\nbackend            : %s (%s)\n" b.Backend.name
      b.Backend.description;
    Printf.printf "separator phase    : %s (%d candidate(s))\n" r.Separator.phase
      r.Separator.candidates_tried;
    Printf.printf "separator size     : %d\n" verdict.Check.size;
    Printf.printf "max component      : %d (limit %d)\n" verdict.Check.max_component
      verdict.Check.limit;
    Printf.printf "valid              : %b\n" ok;
    Printf.printf "charged rounds     : %.0f (%.0f x D)\n" (Rounds.total rounds)
      (Rounds.total rounds /. float_of_int d);
    if shrink then begin
      let s = b.Backend.trim cfg r.Separator.separator in
      Printf.printf "after shrink       : %d nodes (balanced %b)\n" (List.length s)
        (Check.balanced cfg s)
    end;
    if verbose then
      Printf.printf "nodes: %s\n"
        (String.concat " " (List.map string_of_int r.Separator.separator));
    (match svg with
    | Some path ->
      Svg.write_file ~highlight:r.Separator.separator
        ?closing:r.Separator.endpoints emb ~path;
      Printf.printf "svg written       : %s\n" path
    | None -> ());
    Cli.emit_trace tracing tracer;
    Cli.finish ok
  in
  Cmd.v
    (Cmd.info "sep" ~exits:Cli.exits
       ~doc:"Compute and verify a deterministic cycle separator")
    Term.(
      const run $ instance $ edges_arg $ tree_arg $ Cli.backend $ shrink_arg
      $ verbose_arg $ svg_arg $ Cli.tracing)

(* ------------------------------------------------------------------ *)
(* dfs                                                                  *)
(* ------------------------------------------------------------------ *)

let root_arg =
  let doc = "DFS root (default: the embedding's outer vertex)." in
  Arg.(value & opt (some int) None & info [ "root"; "r" ] ~docv:"V" ~doc)

let compare_arg =
  let doc = "Also run Awerbuch's O(n) DFS in the message-level engine." in
  Arg.(value & flag & info [ "compare-awerbuch" ] ~doc)

let dfs_cmd =
  let run inst edges root jobs b cutoff compare_awerbuch tracing =
    let emb, g, d = load inst edges in
    let root = Option.value root ~default:(Embedded.outer emb) in
    if root < 0 || root >= Graph.n g then
      Cli.fail "root %d out of range (the instance has %d vertices)" root
        (Graph.n g);
    let tracer = Cli.tracer tracing in
    let rounds = Rounds.create ?trace:tracer ~n:(Graph.n g) ~d () in
    Cli.or_screen_reject @@ fun () ->
    let r =
      Repro_util.Pool.with_pool ~jobs (fun pool ->
          Dfs.run ~rounds ~pool ~backend:b ?small_part_cutoff:cutoff emb ~root)
    in
    let ok = Dfs.verify emb ~root r in
    Printf.printf "\nDFS root           : %d\n" root;
    Printf.printf "phases             : %d\n" r.Dfs.phases;
    Printf.printf "max join iters     : %d\n" r.Dfs.max_join_iterations;
    Printf.printf "tree depth         : %d\n" (Array.fold_left max 0 r.Dfs.depth);
    Printf.printf "valid DFS tree     : %b\n" ok;
    Printf.printf "charged rounds     : %.0f\n" (Rounds.total rounds);
    if compare_awerbuch then begin
      let aw = Awerbuch.run g ~root in
      Printf.printf "awerbuch rounds    : %d (measured; ~4n)\n" aw.Awerbuch.rounds;
      Printf.printf "awerbuch valid     : %b\n"
        (Algo.is_dfs_tree g ~root ~parent:aw.Awerbuch.parent)
    end;
    Cli.emit_trace tracing tracer;
    Cli.finish ok
  in
  Cmd.v
    (Cmd.info "dfs" ~exits:Cli.exits
       ~doc:"Compute a DFS tree with the deterministic Õ(D) algorithm")
    Term.(
      const run $ instance $ edges_arg $ root_arg $ Cli.jobs $ Cli.backend
      $ Cli.cutoff $ compare_arg $ Cli.tracing)

(* ------------------------------------------------------------------ *)
(* bdd                                                                  *)
(* ------------------------------------------------------------------ *)

let target_arg =
  let doc = "Hop-diameter target for the pieces." in
  Arg.(value & opt int 8 & info [ "target" ] ~docv:"T" ~doc)

let piece_arg =
  let doc = "Piece-size target (used when --by-size is set)." in
  Arg.(value & opt int 20 & info [ "piece" ] ~docv:"K" ~doc)

let by_size_arg =
  let doc = "Decompose by piece size (Lipton-Tarjan) instead of diameter." in
  Arg.(value & flag & info [ "by-size" ] ~doc)

let bdd_cmd =
  let run inst edges target piece by_size jobs b cutoff tracing =
    if by_size && piece < 1 then Cli.fail "--piece must be >= 1, got %d" piece;
    if (not by_size) && target < 1 then
      Cli.fail "--target must be >= 1, got %d" target;
    let emb, g, d = load inst edges in
    let tracer = Cli.tracer tracing in
    let rounds =
      Option.map
        (fun tr -> Rounds.create ~trace:tr ~n:(Graph.n g) ~d ())
        tracer
    in
    Cli.or_screen_reject @@ fun () ->
    let t, ok =
      Repro_util.Pool.with_pool ~jobs (fun pool ->
          if by_size then begin
            let t =
              Decomposition.build ?rounds ~pool ~piece_target:piece ~backend:b
                ?small_part_cutoff:cutoff emb
            in
            (t, Decomposition.check emb ~piece_target:piece t)
          end
          else begin
            let t =
              Decomposition.bounded_diameter ?rounds ~pool
                ~diameter_target:target ~backend:b ?small_part_cutoff:cutoff
                emb
            in
            (t, Decomposition.check_bounded_diameter emb ~diameter_target:target t)
          end)
    in
    Printf.printf "\npieces            : %d\n" (List.length t.Decomposition.pieces);
    Printf.printf "recursion levels  : %d\n" t.Decomposition.levels;
    Printf.printf "separator nodes   : %d (%.1f%% of n)\n"
      t.Decomposition.separator_count
      (100.0 *. float_of_int t.Decomposition.separator_count
      /. float_of_int (Graph.n g));
    Printf.printf "valid             : %b\n" ok;
    (match rounds with
    | Some r -> Printf.printf "charged rounds    : %.0f\n" (Rounds.total r)
    | None -> ());
    Cli.emit_trace tracing tracer;
    Cli.finish ok
  in
  Cmd.v
    (Cmd.info "bdd" ~exits:Cli.exits
       ~doc:
         "Recursive separator decomposition: bounded-diameter pieces (default) \
          or bounded-size pieces (--by-size)")
    Term.(
      const run $ instance $ edges_arg $ target_arg $ piece_arg $ by_size_arg
      $ Cli.jobs $ Cli.backend $ Cli.cutoff $ Cli.tracing)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0" ~exits:Cli.exits
      ~doc:
        "Deterministic distributed DFS via cycle separators in planar graphs \
         (PODC 2025 reproduction)"
  in
  Cli.eval (Cmd.group info [ gen_cmd; sep_cmd; dfs_cmd; bdd_cmd ])
