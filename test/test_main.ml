(* Aggregated alcotest entry point: one section per library.

   Suite names are derived from the module names (Repro_testkit.Suite) and
   duplicates are a hard error, so adding a module here is the only
   registration step. *)

let () =
  Alcotest.run "repro"
    (Repro_testkit.Suite.combine
       [
         Test_util.suites;
         Test_graph.suites;
         Test_embedding.suites;
         Test_planarity.suites;
         Test_svg.suites;
         Test_tree.suites;
         Test_congest.suites;
         Test_faces.suites;
         Test_weights.suites;
         Test_hidden.suites;
         Test_separator.suites;
         Test_dfs.suites;
         Test_join.suites;
         Test_decomposition.suites;
         Test_composed.suites;
         Test_baseline.suites;
         Test_backend.suites;
         Engine_equiv.suites;
         Test_collective.suites;
         Test_pool.suites;
         Test_parallel.suites;
         Test_testkit.suites;
         Test_trace.suites;
         Test_screen.suites;
         Test_serve.suites;
         Test_cli.suites;
         Test_bench.suites;
       ])
