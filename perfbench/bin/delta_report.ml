(* Per-layer delta report between two saved results of this benchmark
   (.perfbench/<workload>-seed<N>-trace<T>.json, which hold every metric
   measured under "all"). *)

module Json = Repro_trace.Json

let values path =
  let doc =
    try Json.of_string (In_channel.with_open_text path In_channel.input_all)
    with Failure e -> failwith (path ^ ": " ^ e)
  in
  match Json.member "all" doc with
  | Some (Json.Obj l) ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Float f -> Some (k, f)
        | Json.Int i -> Some (k, float_of_int i)
        | _ -> None)
      l
  | _ -> failwith (path ^ ": not a saved perfbench result")

let layer k = match String.index_opt k '.' with Some i -> String.sub k 0 i | None -> "end-to-end"

let run a b =
  let va = values a and vb = values b in
  let keys =
    List.map fst va @ List.filter (fun k -> not (List.mem_assoc k va)) (List.map fst vb)
  in
  (* End-to-end rows first, then one block per layer. *)
  let groups = List.sort_uniq compare (List.map layer keys) in
  let groups = "end-to-end" :: List.filter (( <> ) "end-to-end") groups in
  Printf.printf "%-34s %14s %14s %14s %9s\n" "metric" "before" "after" "delta" "delta%";
  List.iter
    (fun g ->
      List.iter
        (fun k ->
          if layer k = g then
            match (List.assoc_opt k va, List.assoc_opt k vb) with
            | Some x, Some y ->
              let pct = if x = 0.0 then "" else Printf.sprintf "%+.1f%%" (100.0 *. (y -. x) /. Float.abs x) in
              Printf.printf "%-34s %14.6g %14.6g %+14.6g %9s\n" k x y (y -. x) pct
            | Some x, None -> Printf.printf "%-34s %14.6g %14s\n" k x "-"
            | None, Some y -> Printf.printf "%-34s %14s %14.6g\n" k "-" y
            | None, None -> ())
        keys)
    groups
