(* Face weights — the paper's deterministic replacement for the randomized
   weight estimation of Ghaffari–Parter.

   [weight] implements Definition 2 exactly for real fundamental edges: an
   O(deg(u) + deg(v) + log n) formula built from the LEFT/RIGHT DFS orders,
   subtree sizes, depths and the locally-computable p-terms.  Lemmas 3 and 4
   state what it counts:

   - u not an ancestor of v: |F~_e| = interior of F_e plus the border path
     from LCA(u,v) to v (w excluded, v included);
   - u an ancestor of v: exactly the interior of F_e.

   The test suite checks the formula against [Faces.weight_reference], which
   counts those sets from the exact face-traversal interior. *)

open Repro_tree

(* Sum of subtree sizes of the children of [x] hanging inside F_e.  This is
   the paper's p_{F_e}(x): the number of nodes of F_e in the strict subtree
   of x. *)
let p_term f x =
  let tree = Config.tree (Faces.config f) in
  Faces.fold_inside_children f x (fun acc c -> acc + Rooted.size tree c) 0

(* The face's case, LCA and path child are computed once and shared by
   both p-terms and the formula. *)
let weight cfg ~u ~v =
  let tree = Config.tree cfg in
  let f = Faces.face cfg ~u ~v in
  let pu = p_term f u in
  let pv = p_term f v in
  match Faces.face_case f with
  | Faces.Unrelated ->
    (* Definition 2, case 1. *)
    pu + pv + Rooted.pi_left tree v
    - (Rooted.pi_left tree u + Rooted.size tree u)
    + 1
  | Faces.Anc_right ->
    (* Definition 2, case 2: the orientation where the fundamental edge
       leaves u clockwise-after the path child pairs with the LEFT order —
       this follows the proof of Lemma 4 (the labels in Definition 2 itself
       have the two orders swapped; the proof is the consistent version). *)
    let z = Faces.branch_v f in
    pu + pv
    + (Rooted.pi_left tree v - Rooted.pi_left tree z)
    - (Rooted.depth tree v - Rooted.depth tree z)
  | Faces.Anc_left ->
    let z = Faces.branch_v f in
    pu + pv
    + (Rooted.pi_right tree v - Rooted.pi_right tree z)
    - (Rooted.depth tree v - Rooted.depth tree z)

(* Weights of all real fundamental edges (Phase-1 precomputation,
   WEIGHTS-PROBLEM / Lemma 12). *)
let all_weights cfg =
  List.map (fun (u, v) -> ((u, v), weight cfg ~u ~v)) (Config.fundamental_edges cfg)

(* ------------------------------------------------------------------ *)
(* The outside split of Lemma 8.                                       *)
(* ------------------------------------------------------------------ *)

(* Nodes outside F_e split into F_l (visited before the face in the LEFT
   order, or hanging outside below u) and F_r (visited after).  The face is
   marked with the local rule (Remark 1); returns (f_left, f_right) as node
   lists. *)
let outside_split cfg ~u ~v =
  let tree = Config.tree cfg in
  let n = Config.n cfg in
  let in_face = Array.make n false in
  Faces.iter_interior (Faces.face cfg ~u ~v) (fun x -> in_face.(x) <- true);
  List.iter (fun x -> in_face.(x) <- true) (Faces.border cfg ~u ~v);
  let fl = ref [] and fr = ref [] in
  for z = 0 to n - 1 do
    if not (in_face.(z)) then
      if Rooted.pi_left tree z > Rooted.pi_left tree v then fr := z :: !fr
      else fl := z :: !fl
  done;
  (!fl, !fr)
