(** The serving layer's request vocabulary and its seed-deterministic
    request mixes.

    This module owns the wire format both ways: {!to_json} encodes a
    typed request, {!of_json} decodes one, and every client (loadgen,
    bench E19, the tests) builds its lines here rather than by hand.

    One generator feeds three consumers — [tools/loadgen.exe] (over the
    socket), bench E19 (in-process) and the serve-smoke CI job — so the
    deterministic counters they produce (cache hits, charged rounds,
    response hashes) are comparable across all three.  The canonical mix
    below is the one committed into BENCH_8.json's E19 metrics document:
    changing any [canonical_*] constant is a baseline change. *)

type part =
  | All  (** the whole loaded graph *)
  | Piece of int  (** piece [i mod count] of the default decomposition *)
  | Vertices of int list  (** an explicit connected vertex set *)

type request =
  | Dfs of { root : int }
  | Separator of { part : part }
  | Decompose of { piece : int }  (** piece-size target *)
  | Stats  (** the deterministic serving document *)
  | Shutdown  (** answer, then stop accepting connections *)

val op_name : request -> string
(** The wire name of the request's op (["dfs"], ["separator"],
    ["decompose"], ["stats"], ["shutdown"]); also the query-class label
    loadgen and bench E19 report latencies under. *)

val to_json : request -> Repro_trace.Json.t
(** The wire form the daemon parses, e.g.
    [{"op":"separator","part":"piece:2"}]. *)

val of_json :
  default_root:int -> Repro_trace.Json.t -> (request, string) result
(** Decode one request object; the inverse of {!to_json}.  A [dfs]
    without ["root"] gets [default_root] (the loaded graph's outer
    vertex); a [separator] without ["part"] means [All]; a [decompose]
    without ["piece"] means {!default_piece_target}.  Other members
    (["id"], ["trace"]) are envelope fields and are ignored here.
    [Error msg] carries the exact error string the daemon answers with
    (["missing op"], ["unknown op: frobnicate"], ["root must be an
    integer"], ["piece target must be >= 2"], ...).  Checks that need
    the graph — root range, part vertices, connectivity — are the
    engine's. *)

val mix : seed:int -> n:int -> count:int -> request list
(** [count] requests over a graph of [n] vertices: 50% DFS (roots drawn
    from a fixed pool of 6, so repeats hit the cache), 30% separator
    (whole graph or one of 4 decomposition pieces), 20% decompose (piece
    target 24 or 48).  Pure function of [(seed, n, count)]. *)

val default_piece_target : int
(** Piece-size target of the decomposition that [Piece] parts index (24;
    shared with the [Decompose] draw so the dependency is a cache hit). *)

(** The canonical serving instance + mix: grid, n = 1600, generator seed
    1, BFS tree, 120 requests from mix seed 0, cache capacity 64.  At
    capacity 64 the mix's 13 distinct keys (6 DFS roots, 5 separator
    parts — whole graph + pieces 0..3 — and 2 decompose targets) never
    evict, so the
    hit/miss counters depend only on the request multiset — never on
    client interleaving — and gate exactly in CI. *)

val canonical_family : string

val canonical_n : int
val canonical_seed : int
val canonical_requests : int
val canonical_mix_seed : int
val canonical_cache_capacity : int
val canonical : unit -> request list

(** Per-class request latencies, the one recorder loadgen and bench E19
    report from. *)

type latencies

val latencies : unit -> latencies

val record_latency : latencies -> request -> float -> unit
(** Add one sample (seconds) under the request's {!op_name}. *)

type latency_summary = {
  op : string;
  count : int;
  mean : float;
  p50 : float;
  p99 : float;
}
(** Times in seconds; [p50]/[p99] are nearest-rank percentiles.  A class
    with no samples reads [count = 0] and [0.0] elsewhere. *)

val latency_summary : latencies -> latency_summary list
(** One row per query class, in the order dfs, separator, decompose. *)
