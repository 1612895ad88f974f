(* Consolidated debug/stress driver.

     debug conventions [--spec stacked:60:7:rand3]...
     debug separator   [--spec FAMILY:N:SEED:SPANNING]...
     debug dfs         [--spec FAMILY:N:SEED:SPANNING]...
     debug grand       [--iters 4000]
     debug closable    [--family grid --n 50 --seed 434796 --seed 483504]

   Each subcommand is a former ad-hoc debug binary; all of them accept the
   testkit's printable instance specs (see Repro_testkit.Instance), so a
   failure reported by the fuzzer or CI replays here from one line. *)

open Cmdliner
open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core

let spec_arg =
  let doc =
    "Run only this testkit instance spec (repeatable).  Format: \
     FAMILY:N:SEED:SPANNING, e.g. stacked:60:7:rand3.  Without it the \
     subcommand runs its full built-in sweep."
  in
  Arg.(
    value & opt_all string [] & info [ "spec" ] ~docv:"FAMILY:N:SEED:SPANNING" ~doc)

(* (name, embedding, spanning) triples from explicit spec strings, each
   screened first: a hostile spec exits 3 with its verdict. *)
let instances_of_specs specs = List.map Cli.screened_spec specs

(* ------------------------------------------------------------------ *)
(* conventions: local face characterization vs references              *)
(* ------------------------------------------------------------------ *)

let check_conventions ~name emb spanning =
  let cfg = Config.of_embedded ~spanning emb in
  let tree = Config.tree cfg in
  let g = Config.graph cfg in
  let coords = Embedded.coords emb in
  let mism_interior = ref 0 and mism_weight = ref 0 and mism_geom = ref 0 in
  let checked = ref 0 in
  List.iter
    (fun (u, v) ->
      incr checked;
      let reference = Faces.interior_reference cfg ~u ~v |> List.sort compare in
      let local = Faces.interior cfg ~u ~v |> List.sort compare in
      if reference <> local then begin
        incr mism_interior;
        if !mism_interior <= 3 then begin
          Printf.printf "  INTERIOR mismatch %s e=(%d,%d) case=%s\n" name u v
            (Faces.case_name (Faces.classify cfg ~u ~v));
          Printf.printf "    ref=[%s]\n    loc=[%s]\n"
            (String.concat "," (List.map string_of_int reference))
            (String.concat "," (List.map string_of_int local))
        end
      end;
      (* is_inside agrees with membership in the reference list. *)
      let ref_set = Hashtbl.create 16 in
      List.iter (fun x -> Hashtbl.replace ref_set x ()) reference;
      for z = 0 to Graph.n g - 1 do
        let a = Faces.is_inside cfg ~u ~v z in
        let b = Hashtbl.mem ref_set z in
        if a <> b then begin
          incr mism_interior;
          if !mism_interior <= 6 then
            Printf.printf
              "  IS_INSIDE mismatch %s e=(%d,%d) z=%d local=%b ref=%b case=%s\n"
              name u v z a b
              (Faces.case_name (Faces.classify cfg ~u ~v))
        end
      done;
      (* Weight formula vs its proven meaning. *)
      let w_formula = Weights.weight cfg ~u ~v in
      let w_ref = Faces.weight_reference cfg ~u ~v in
      if w_formula <> w_ref then begin
        incr mism_weight;
        if !mism_weight <= 6 then
          Printf.printf "  WEIGHT mismatch %s e=(%d,%d) case=%s formula=%d ref=%d\n"
            name u v
            (Faces.case_name (Faces.classify cfg ~u ~v))
            w_formula w_ref
      end;
      (* Geometry: interior nodes are inside the drawn cycle polygon. *)
      (match coords with
      | None -> ()
      | Some coords ->
        let poly =
          Rooted.path tree u v |> List.map (fun x -> coords.(x)) |> Array.of_list
        in
        for z = 0 to Graph.n g - 1 do
          if not (Faces.on_border cfg ~u ~v z) then begin
            let geo = Geometry.point_in_polygon poly coords.(z) in
            let comb = Hashtbl.mem ref_set z in
            if geo <> comb then begin
              incr mism_geom;
              if !mism_geom <= 3 then
                Printf.printf "  GEOMETRY mismatch %s e=(%d,%d) z=%d geo=%b comb=%b\n"
                  name u v z geo comb
            end
          end
        done))
    (Config.fundamental_edges cfg);
  Printf.printf
    "%s [%s]: %d edges checked, interior mismatches=%d, weight mismatches=%d, \
     geometry mismatches=%d\n"
    name
    (Spanning.kind_name spanning)
    !checked !mism_interior !mism_weight !mism_geom;
  !mism_interior + !mism_weight + !mism_geom

let conventions_cmd =
  let run specs =
    let total = ref 0 in
    (match specs with
    | _ :: _ ->
      List.iter
        (fun (name, emb, spanning) ->
          total := !total + check_conventions ~name emb spanning)
        (instances_of_specs specs)
    | [] ->
      let run name emb =
        List.iter
          (fun sp -> total := !total + check_conventions ~name emb sp)
          [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 11 ]
      in
      run "grid5x5" (Gen.grid ~rows:5 ~cols:5);
      run "tgrid4x4" (Gen.grid_diag ~seed:2 ~rows:4 ~cols:4 ());
      run "stacked30" (Gen.stacked_triangulation ~seed:3 ~n:30 ());
      run "wheel9" (Gen.wheel 9);
      run "fan8" (Gen.fan 8);
      run "cycle12" (Gen.cycle 12);
      for seed = 1 to 8 do
        run
          (Printf.sprintf "thin%d" seed)
          (Gen.thin ~seed ~keep:0.55 (Gen.stacked_triangulation ~seed ~n:40 ()))
      done);
    Printf.printf "TOTAL mismatches: %d\n" !total;
    exit (if !total = 0 then 0 else 1)
  in
  let term = Term.(const run $ spec_arg) in
  Cmd.v
    (Cmd.info "conventions" ~exits:Cli.exits
       ~doc:
         "Cross-validate the local face characterization (Claims 1/3/4/5, \
          Remark 1) against the exact T+e face-traversal reference and, where \
          coordinates exist, geometric point-in-polygon")
    term

(* ------------------------------------------------------------------ *)
(* separator: all-family stress with phase histogram                    *)
(* ------------------------------------------------------------------ *)

let separator_cmd =
  let run specs b =
    let phases = Hashtbl.create 16 in
    let bump k =
      Hashtbl.replace phases k
        (1 + Option.value ~default:0 (Hashtbl.find_opt phases k))
    in
    let failures = ref 0 and total = ref 0 and extra_candidates = ref 0 in
    let check name emb spanning =
      incr total;
      let cfg = Config.of_embedded ~spanning emb in
      match b.Backend.find cfg with
      | exception e ->
        incr failures;
        Printf.printf "EXCEPTION %s [%s]: %s\n" name (Spanning.kind_name spanning)
          (Printexc.to_string e)
      | r ->
        bump r.Separator.phase;
        if r.Separator.candidates_tried > 1 then incr extra_candidates;
        let verdict = Check.check_separator cfg r.Separator.separator in
        if not (Backend.accepts b verdict) then begin
          incr failures;
          Printf.printf "INVALID %s [%s] phase=%s: %s\n" name
            (Spanning.kind_name spanning) r.Separator.phase
            (Fmt.str "%a" Check.pp_verdict verdict)
        end
    in
    (match specs with
    | _ :: _ ->
      List.iter
        (fun (name, emb, spanning) -> check name emb spanning)
        (instances_of_specs specs)
    | [] ->
      let kinds = [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 5 ] in
      let sizes = [ 10; 17; 25; 60; 150; 400; 900; 1600 ] in
      List.iter
        (fun family ->
          List.iter
            (fun n ->
              List.iter
                (fun seed ->
                  let emb = Gen.by_family ~seed family ~n in
                  List.iter (fun k -> check (Embedded.name emb) emb k) kinds)
                [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
            sizes)
        Gen.family_names;
      (* Extra adversarial shapes. *)
      List.iter
        (fun emb -> List.iter (fun k -> check (Embedded.name emb) emb k) kinds)
        [
          Gen.star 50;
          Gen.path 100;
          Gen.wheel 40;
          Gen.caterpillar ~spine:20 ~legs:4;
          Gen.cycle 99;
        ]);
    Printf.printf "total=%d failures=%d multi-candidate=%d\n" !total !failures
      !extra_candidates;
    Hashtbl.iter (fun k v -> Printf.printf "  phase %-16s : %d\n" k v) phases;
    exit (if !failures = 0 then 0 else 1)
  in
  let term = Term.(const run $ spec_arg $ Cli.backend) in
  Cmd.v
    (Cmd.info "separator" ~exits:Cli.exits
       ~doc:
         "Stress the separator across families, sizes, seeds and spanning \
          kinds; validate every output and report the phase distribution")
    term

(* ------------------------------------------------------------------ *)
(* dfs: DFS construction stress                                         *)
(* ------------------------------------------------------------------ *)

let dfs_cmd =
  let run specs jobs b cutoff =
    Repro_util.Pool.with_pool ~jobs @@ fun pool ->
    let failures = ref 0 and total = ref 0 in
    let max_phases = ref 0 in
    let check ?spanning name emb =
      incr total;
      let root = Embedded.outer emb in
      match
        Dfs.run ?spanning ~pool ~backend:b ?small_part_cutoff:cutoff emb ~root
      with
      | exception e ->
        incr failures;
        Printf.printf "EXCEPTION %s: %s\n" name (Printexc.to_string e)
      | r ->
        max_phases := max !max_phases r.Dfs.phases;
        if not (Dfs.verify emb ~root r) then begin
          incr failures;
          Printf.printf "INVALID DFS %s (phases=%d)\n" name r.Dfs.phases
        end
    in
    (match specs with
    | _ :: _ ->
      List.iter
        (fun (name, emb, spanning) -> check ~spanning name emb)
        (instances_of_specs specs)
    | [] ->
      List.iter
        (fun family ->
          List.iter
            (fun n ->
              List.iter
                (fun seed ->
                  check (family ^ string_of_int n) (Gen.by_family ~seed family ~n))
                [ 1; 2; 3; 4; 5 ])
            [ 5; 12; 30; 80; 200; 400 ])
        Gen.family_names;
      List.iter
        (fun emb -> check (Embedded.name emb) emb)
        [
          Gen.star 50; Gen.path 100; Gen.wheel 40; Gen.caterpillar ~spine:20 ~legs:4;
        ];
      (* One detailed run. *)
      let emb = Gen.grid_diag ~seed:3 ~rows:20 ~cols:20 () in
      let r =
        Dfs.run ~pool ~backend:b ?small_part_cutoff:cutoff emb ~root:0
      in
      Printf.printf "tgrid20x20: phases=%d max_join=%d valid=%b\n" r.Dfs.phases
        r.Dfs.max_join_iterations
        (Dfs.verify emb ~root:0 r);
      List.iter
        (fun (c, l, j) ->
          Printf.printf "  phase: comps=%d largest=%d join_iters=%d\n" c l j)
        r.Dfs.phase_log;
      List.iter
        (fun (p, c) -> Printf.printf "  sep %s: %d\n" p c)
        r.Dfs.separator_phases);
    Printf.printf "total=%d failures=%d max_phases=%d\n" !total !failures !max_phases;
    exit (if !failures = 0 then 0 else 1)
  in
  let term = Term.(const run $ spec_arg $ Cli.jobs $ Cli.backend $ Cli.cutoff) in
  Cmd.v
    (Cmd.info "dfs" ~exits:Cli.exits
       ~doc:"Stress the deterministic DFS construction")
    term

(* ------------------------------------------------------------------ *)
(* grand: randomized long-haul stress with closing-edge certification   *)
(* ------------------------------------------------------------------ *)

let shuffle_labels ~seed g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  Repro_util.Rng.shuffle_in_place (Repro_util.Rng.create seed) perm;
  Graph.of_edges ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))

let iters_arg =
  let doc = "Number of randomized iterations." in
  Arg.(value & opt int 4000 & info [ "iters" ] ~docv:"N" ~doc)

let grand_cmd =
  let run iters =
    let rng = Repro_util.Rng.create 20260705 in
    let fails = ref 0 and total = ref 0 and certified = ref 0 in
    for i = 1 to iters do
      let which = Repro_util.Rng.int rng 7 in
      let n = 4 + Repro_util.Rng.int rng 300 in
      let seed = Repro_util.Rng.int rng 1000000 in
      let family = List.nth Gen.family_names which in
      let emb0 = Gen.by_family ~seed family ~n in
      let use_dmp = Repro_util.Rng.int rng 4 = 0 in
      let emb =
        if not use_dmp then emb0
        else begin
          let g = shuffle_labels ~seed:(seed + 1) (Embedded.graph emb0) in
          match Planarity.embed g with
          | Some rot -> Embedded.make ~name:"dmp" g rot
          | None -> emb0
        end
      in
      let g = Embedded.graph emb in
      let spanning =
        match Repro_util.Rng.int rng 3 with
        | 0 -> Spanning.Bfs
        | 1 -> Spanning.Dfs
        | _ -> Spanning.Random seed
      in
      incr total;
      (try
         let cfg = Config.of_embedded ~spanning emb in
         let r = Separator.find cfg in
         if not (Check.check_separator cfg r.Separator.separator).Check.valid
         then begin
           incr fails;
           Printf.printf "BAD SEP i=%d %s n=%d seed=%d dmp=%b\n" i family n seed
             use_dmp
         end;
         (match r.Separator.endpoints with
         | Some endpoints when Graph.n g <= 150 ->
           incr certified;
           if not (Check.cycle_closable cfg ~endpoints) then begin
             incr fails;
             Printf.printf "NOT CLOSABLE i=%d %s n=%d seed=%d\n" i family n seed
           end
         | _ -> ());
         if i mod 3 = 0 then begin
           let root = Repro_util.Rng.int rng (Graph.n g) in
           let d = Dfs.run ~spanning emb ~root in
           if not (Dfs.verify emb ~root d) then begin
             incr fails;
             Printf.printf "BAD DFS i=%d %s n=%d seed=%d root=%d dmp=%b\n" i
               family n seed root use_dmp
           end
         end
       with e ->
         incr fails;
         Printf.printf "EXC i=%d %s n=%d seed=%d dmp=%b: %s\n" i family n seed
           use_dmp (Printexc.to_string e));
      if !fails > 10 then exit 1
    done;
    Printf.printf "grand stress: total=%d closing-edges-certified=%d fails=%d\n"
      !total !certified !fails;
    exit (if !fails = 0 then 0 else 1)
  in
  let term = Term.(const run $ iters_arg) in
  Cmd.v
    (Cmd.info "grand" ~exits:Cli.exits
       ~doc:
         "Randomized separators + DFS across generated and DMP-embedded \
          instances, with closing-edge certification")
    term

(* ------------------------------------------------------------------ *)
(* closable: which phase emits an uncertifiable closing edge?           *)
(* ------------------------------------------------------------------ *)

let closable_family_arg =
  let doc = "Generator family to probe." in
  Arg.(value & opt string "grid" & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)

let closable_n_arg =
  let doc = "Instance size." in
  Arg.(value & opt int 50 & info [ "n" ] ~docv:"N" ~doc)

let closable_seeds_arg =
  let doc = "Generator seed (repeatable)." in
  Arg.(value & opt_all int [ 434796; 483504 ] & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let closable_cmd =
  let run family n seeds =
    Cli.check_name ~what:"family" ~known:Gen.all_family_names family;
    let probed = ref 0 and bad = ref 0 in
    List.iter
      (fun seed ->
        let emb = Gen.by_family ~seed family ~n in
        List.iter
          (fun sp ->
            incr probed;
            let cfg = Config.of_embedded ~spanning:sp emb in
            let r = Separator.find cfg in
            match r.Separator.endpoints with
            | Some endpoints when not (Check.cycle_closable cfg ~endpoints) ->
              incr bad;
              let a, b = endpoints in
              Printf.printf "seed=%d sp=%s phase=%s edge=(%d,%d) real=%b\n" seed
                (Spanning.kind_name sp) r.Separator.phase a b
                (Graph.mem_edge (Config.graph cfg) a b)
            | _ -> ())
          [ Spanning.Bfs; Spanning.Dfs; Spanning.Random seed ])
      seeds;
    Printf.printf "closable: %d separators probed, %d uncertifiable\n" !probed !bad;
    if !bad > 0 then exit 1
  in
  let term = Term.(const run $ closable_family_arg $ closable_n_arg $ closable_seeds_arg) in
  Cmd.v
    (Cmd.info "closable" ~exits:Cli.exits
       ~doc:"Report separators whose closing edge fails certification")
    term

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "debug" ~version:"1.0.0" ~exits:Cli.exits
      ~doc:"Debug and stress harnesses for the reproduction (one former ad-hoc binary per subcommand)"
  in
  Cli.eval
    (Cmd.group info
       [ conventions_cmd; separator_cmd; dfs_cmd; grand_cmd; closable_cmd ])
