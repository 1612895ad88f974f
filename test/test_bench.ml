(* The experiment harness's command line: a name it does not know, or a
   flag it does not take, exits 2 before anything runs or is written, so a
   typo cannot overwrite a committed BENCH_*.json with an empty dump. *)

(* Tests run from _build/default/test, next to the built harness; the dune
   test stanza depends on it. *)
let bench_exe = Filename.concat ".." (Filename.concat "bench" "main.exe")

let test_rejects_unknown_before_writing () =
  if not (Sys.file_exists bench_exe) then Alcotest.skip ()
  else begin
    let out = Filename.temp_file "bench" ".json" in
    Sys.remove out;
    let run args =
      Sys.command
        (Printf.sprintf "%s %s --out %s >/dev/null 2>&1" bench_exe args
           (Filename.quote out))
    in
    List.iter
      (fun args ->
        Alcotest.(check int) (args ^ ": exit 2") 2 (run args);
        Alcotest.(check bool) (args ^ ": nothing written") false
          (Sys.file_exists out))
      [ "e99"; "--short E11"; "--bogus e1"; "e1 e2"; "--jobs x e1" ];
    Alcotest.(check int) "--help: exit 0" 0 (run "--help");
    Alcotest.(check bool) "--help: nothing written" false (Sys.file_exists out)
  end

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
      Alcotest.test_case "unknown experiment or flag exits 2, writes nothing"
        `Quick test_rejects_unknown_before_writing;
    ]
