(* The CLI's stdout, pinned byte for byte on small clean instances: the
   shared argv module (bin/cli.ml) must not change what any subcommand
   prints or how it exits on a good run. *)

module Suite = Repro_testkit.Suite

(* Tests run from _build/default/test, next to the built CLI. *)
let repro_exe = Filename.concat ".." (Filename.concat "bin" "main.exe")

let pinned =
  [
    ( "gen --family tgrid -n 100 --seed 1",
      {|instance : tgrid-10x10
n        : 100
m        : 261
D        : 12
planar embedding valid : true
screen verdict         : accepted
connected              : true
straight-line drawing  : true
outer-face vertex      : 0
|} );
    ( "sep --family grid -n 100 --seed 1",
      {|instance : grid-10x10
n        : 100
m        : 180
D        : 18

backend            : congest (six-phase deterministic cycle separator (Theorem 1))
separator phase    : 5-left-sweep (4 candidate(s))
separator size     : 17
max component      : 63 (limit 67)
valid              : true
charged rounds     : 20286 (1127 x D)
|} );
    ( "sep --family grid -n 100 --seed 1 --backend lt-level --shrink",
      {|instance : grid-10x10
n        : 100
m        : 180
D        : 18

backend            : lt-level (centralized Lipton-Tarjan BFS-level separator)
separator phase    : lt-level (1 candidate(s))
separator size     : 8
max component      : 64 (limit 67)
valid              : true
charged rounds     : 2746 (153 x D)
after shrink       : 8 nodes (balanced true)
|} );
    ( "dfs --family tgrid -n 100 --seed 1 --jobs 1",
      {|instance : tgrid-10x10
n        : 100
m        : 261
D        : 12

DFS root           : 0
phases             : 5
max join iters     : 3
tree depth         : 37
valid DFS tree     : true
charged rounds     : 149940
|} );
    ( "bdd --family tgrid -n 100 --seed 1 --jobs 1",
      {|instance : tgrid-10x10
n        : 100
m        : 261
D        : 12

pieces            : 6
recursion levels  : 5
separator nodes   : 28 (28.0% of n)
valid             : true
|} );
    ( "bdd --family stacked -n 100 --seed 1 --by-size --jobs 1",
      {|instance : stacked-100
n        : 100
m        : 294
D        : 6

pieces            : 9
recursion levels  : 3
separator nodes   : 10 (10.0% of n)
valid             : true
|} );
  ]

let run args =
  let out = Filename.temp_file "repro" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>/dev/null" repro_exe args (Filename.quote out))
  in
  let stdout = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, stdout)

let test_stdout_pinned () =
  if not (Sys.file_exists repro_exe) then Alcotest.skip ()
  else
    List.iter
      (fun (args, expected) ->
        let code, stdout = run args in
        Alcotest.(check int) (args ^ ": exit 0") 0 code;
        Alcotest.(check string) (args ^ ": stdout") expected stdout)
      pinned

let suites =
  Suite.make __MODULE__
    [ Alcotest.test_case "stdout pinned (gen/sep/dfs/bdd)" `Quick test_stdout_pinned ]
