(* The separator-backend registry.

   Keeping the registry here (rather than in lib/baseline) matches the
   library dependency direction: repro_core does not know about the
   centralized baselines, but repro_baseline depends on repro_core, so
   the Lipton–Tarjan and Har-Peled–Nayyeri backends register themselves
   into this table from Repro_baseline.Backends.  OCaml only links
   archive modules that are referenced, so registration side effects in
   another library are not enough on their own — executables call
   [Backends.ensure ()] to force the centralized registrations before
   resolving names. *)

open Repro_congest

type kind = Distributed | Centralized
type certificate = Cycle_certified | Balance_only

type t = {
  name : string;
  description : string;
  kind : kind;
  certificate : certificate;
  cost_model : string;
  find : ?rounds:Rounds.t -> Config.t -> Separator.result;
  trim : ?rounds:Rounds.t -> Config.t -> int list -> int list;
}

exception Duplicate_backend of string

let registry : t list ref = ref []

let register b =
  if List.exists (fun b' -> b'.name = b.name) !registry then
    raise (Duplicate_backend b.name);
  registry := !registry @ [ b ]

let all () = !registry
let names () = List.map (fun b -> b.name) !registry
let lookup_opt name = List.find_opt (fun b -> b.name = name) !registry

let lookup name =
  match lookup_opt name with
  | Some b -> b
  | None ->
    failwith
      (Printf.sprintf "unknown separator backend %s (known: %s)" name
         (String.concat ", " (names ())))

(* The tree-path shape is part of the contract only for the distributed
   algorithm; centralized backends are judged on balance alone. *)
let accepts b (v : Check.verdict) =
  match b.kind with
  | Distributed -> v.Check.valid
  | Centralized -> v.Check.size > 0 && v.Check.max_component <= v.Check.limit

let centralized_default () =
  List.find_opt (fun b -> b.kind = Centralized) !registry

(* The six-phase algorithm of Theorem 1, behavior-preserving: [find] and
   [trim] are the exact functions the stack called before the registry
   existed, so dispatching through the default backend is bit-identical
   to the pre-registry pipeline. *)
let congest =
  {
    name = "congest";
    description = "six-phase deterministic cycle separator (Theorem 1)";
    kind = Distributed;
    certificate = Cycle_certified;
    cost_model = "O~(D) charged rounds (one PA = c_pa*D*log^2 n)";
    find = Separator.find;
    trim = Separator.shrink;
  }

let default () = congest
let () = register congest

(* Parts at or below the cutoff dispatch to the small-part backend — the
   fast path that dominates deep recursion levels — everything else to
   the main one. *)
let per_part ?backend ?small_part_cutoff ?small_backend () =
  let backend = Option.value backend ~default:congest in
  match small_part_cutoff with
  | None -> fun _ -> backend
  | Some cutoff ->
    let small =
      match small_backend with
      | Some b -> b
      | None -> Option.value (centralized_default ()) ~default:backend
    in
    fun size -> if size <= cutoff then small else backend
