module Json = Repro_trace.Json
module Rng = Repro_util.Rng

type part = All | Piece of int | Vertices of int list

type request =
  | Dfs of { root : int }
  | Separator of { part : part }
  | Decompose of { piece : int }
  | Stats
  | Shutdown

let default_piece_target = 24

let op_name = function
  | Dfs _ -> "dfs"
  | Separator _ -> "separator"
  | Decompose _ -> "decompose"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let part_to_json = function
  | All -> Json.String "all"
  | Piece i -> Json.String ("piece:" ^ string_of_int i)
  | Vertices vs -> Json.List (List.map (fun v -> Json.Int v) vs)

let to_json r =
  let args =
    match r with
    | Dfs { root } -> [ ("root", Json.Int root) ]
    | Separator { part } -> [ ("part", part_to_json part) ]
    | Decompose { piece } -> [ ("piece", Json.Int piece) ]
    | Stats | Shutdown -> []
  in
  Json.Obj (("op", Json.String (op_name r)) :: args)

exception Bad of string

let of_json ~default_root req =
  let bad msg = raise (Bad msg) in
  let int_field name ~default =
    match Json.member name req with
    | None -> default
    | Some (Json.Int i) -> i
    | Some _ -> bad (name ^ " must be an integer")
  in
  let part () =
    match Json.member "part" req with
    | None | Some (Json.String "all") -> All
    | Some (Json.String s)
      when String.length s > 6 && String.sub s 0 6 = "piece:" -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some i when i >= 0 -> Piece i
      | _ -> bad ("bad part spec: " ^ s))
    | Some (Json.List l) ->
      Vertices
        (List.map
           (function
             | Json.Int v -> v | _ -> bad "part list must hold integers")
           l)
    | Some _ -> bad "bad part field"
  in
  match
    match Json.member "op" req with
    | Some (Json.String "dfs") ->
      Dfs { root = int_field "root" ~default:default_root }
    | Some (Json.String "separator") -> Separator { part = part () }
    | Some (Json.String "decompose") ->
      let piece = int_field "piece" ~default:default_piece_target in
      if piece < 2 then bad "piece target must be >= 2";
      Decompose { piece }
    | Some (Json.String "stats") -> Stats
    | Some (Json.String "shutdown") -> Shutdown
    | Some (Json.String op) -> bad ("unknown op: " ^ op)
    | Some _ -> bad "op must be a string"
    | None -> bad "missing op"
  with
  | r -> Ok r
  | exception Bad msg -> Error msg

(* Root pool: 6 fixed vertices spread across the id range.  Small enough
   that a 120-request mix revisits every root several times (the
   repeated-root cache hits E19 measures), large enough to exercise
   distinct DFS trees. *)
let root_pool n = Array.init 6 (fun i -> (i + 1) * n / 8)

let piece_targets = [| default_piece_target; 2 * default_piece_target |]

let mix ~seed ~n ~count =
  let rng = Rng.create seed in
  let roots = root_pool n in
  List.init count (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> Dfs { root = Rng.pick rng roots }
      | 5 | 6 | 7 ->
        let k = Rng.int rng 5 in
        Separator { part = (if k = 0 then All else Piece (k - 1)) }
      | _ -> Decompose { piece = Rng.pick rng piece_targets })

let canonical_family = "grid"
let canonical_n = 1600
let canonical_seed = 1
let canonical_requests = 120
let canonical_mix_seed = 0
let canonical_cache_capacity = 64

let canonical () =
  mix ~seed:canonical_mix_seed ~n:canonical_n ~count:canonical_requests

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 1]. *)
let percentile samples p =
  let k = Array.length samples in
  if k = 0 then 0.0
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let rank =
      int_of_float (Float.round (p *. float_of_int (k - 1)))
      |> max 0 |> min (k - 1)
    in
    sorted.(rank)
  end

type latencies = (string, float list ref) Hashtbl.t

let latencies () : latencies = Hashtbl.create 4

let record_latency t r seconds =
  let op = op_name r in
  match Hashtbl.find_opt t op with
  | Some l -> l := seconds :: !l
  | None -> Hashtbl.add t op (ref [ seconds ])

type latency_summary = {
  op : string;
  count : int;
  mean : float;
  p50 : float;
  p99 : float;
}

let latency_summary t =
  List.map
    (fun op ->
      let samples =
        match Hashtbl.find_opt t op with
        | Some l -> Array.of_list !l
        | None -> [||]
      in
      let count = Array.length samples in
      let mean =
        if count = 0 then 0.0
        else Array.fold_left ( +. ) 0.0 samples /. float_of_int count
      in
      {
        op;
        count;
        mean;
        p50 = percentile samples 0.5;
        p99 = percentile samples 0.99;
      })
    [ "dfs"; "separator"; "decompose" ]
