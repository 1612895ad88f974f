(* Fundamental faces of a planar configuration (paper, Sections 2 and 4).

   For a real fundamental edge e = uv (normalized pi_left(u) < pi_left(v))
   the fundamental face F_e is the face of T + e that does not contain the
   virtual root.  Two implementations coexist:

   - [is_inside] / [iter_interior]: the paper's local characterization
     (Claims 1, 3, 4, 5 and Remark 1) in O(log n) per query — what the
     distributed algorithm evaluates, what the weight formula of
     Definition 2 consumes, and what the separator's Phase 4/5 sweeps
     enumerate.

   - [interior_reference]: exact, by traversing the two faces of T + e in
     the induced rotation system and discarding the one holding the root
     corner.  O(n log n) per edge and allocation-heavy; the ground truth the
     tests, the fuzz oracles and the bench check the local rule against,
     never called by the algorithm itself. *)

open Repro_graph
open Repro_embedding
open Repro_tree

type edge_case = Unrelated | Anc_left | Anc_right

(* Normalized rotation position: the parent edge (or the virtual root edge
   position) is at 0 and positions grow clockwise. *)
let anchor cfg x =
  let tree = Config.tree cfg in
  if x = Rooted.root tree then begin
    match Config.root_first cfg with
    | Some f -> Rotation.position (Config.rot cfg) x f
    | None -> 0
  end
  else Rotation.position (Config.rot cfg) x (Rooted.parent tree x)

let npos cfg x y =
  let rot = Config.rot cfg in
  let d = Rotation.degree rot x in
  ((Rotation.position rot x y - anchor cfg x) + d) mod d

(* Child of [x] on the tree path towards its descendant [z]. *)
let child_toward cfg x z =
  let tree = Config.tree cfg in
  Rooted.kth_ancestor tree z (Rooted.depth tree z - Rooted.depth tree x - 1)

let normalize cfg (a, b) =
  let tree = Config.tree cfg in
  if Rooted.pi_left tree a < Rooted.pi_left tree b then (a, b) else (b, a)

(* ------------------------------------------------------------------ *)
(* Per-edge invariants.                                                *)
(* ------------------------------------------------------------------ *)

(* Everything every local query on F_e reads about the edge itself: the
   case, the top border node w = LCA(u, v) (= u when u is an ancestor of
   v) and w's border children towards u and v ([-1] when that side of the
   border is w itself).  Each is computed at most once per edge; when u is
   not an ancestor of v the top is found only on first use ([w = -1]
   until then), since Definition 2's weight never needs it. *)
type face = {
  cfg : Config.t;
  u : int;
  v : int;
  case : edge_case;
  mutable w : int;
  mutable wu : int;
  mutable wv : int;
}

let face cfg ~u ~v =
  let tree = Config.tree cfg in
  if Rooted.is_ancestor tree ~anc:u ~desc:v then begin
    let wv = child_toward cfg u v in
    let case = if npos cfg u v < npos cfg u wv then Anc_left else Anc_right in
    { cfg; u; v; case; w = u; wu = -1; wv }
  end
  else { cfg; u; v; case = Unrelated; w = -1; wu = -1; wv = -1 }

(* The top border node w, with its border children filled in. *)
let top f =
  if f.w < 0 then begin
    let w = Rooted.lca (Config.tree f.cfg) f.u f.v in
    let toward z = if z = w then -1 else child_toward f.cfg w z in
    f.wu <- toward f.u;
    f.wv <- toward f.v;
    f.w <- w
  end;
  f.w

let config f = f.cfg
let face_case f = f.case

let branch_v f =
  ignore (top f);
  f.wv

let classify cfg ~u ~v = (face cfg ~u ~v).case

let on_border_face f x =
  let tree = Config.tree f.cfg in
  (Rooted.is_ancestor tree ~anc:x ~desc:f.u || Rooted.is_ancestor tree ~anc:x ~desc:f.v)
  && Rooted.is_ancestor tree ~anc:(top f) ~desc:x

let on_border cfg ~u ~v x = on_border_face (face cfg ~u ~v) x

let border cfg ~u ~v = Rooted.path (Config.tree cfg) u v

(* ------------------------------------------------------------------ *)
(* Local classification of the corners of a border node                *)
(* (Claims 1 and 4).                                                   *)
(* ------------------------------------------------------------------ *)

(* Border node [x]'s border child below it: towards u on the w->u branch,
   towards v otherwise.  [next] is that child when the caller already
   knows it (walking the border), or -1. *)
let border_child f x ~next =
  if next >= 0 then next
  else begin
    let tree = Config.tree f.cfg in
    if x <> f.u && Rooted.is_ancestor tree ~anc:x ~desc:f.u then
      child_toward f.cfg x f.u
    else child_toward f.cfg x f.v
  end

(* Normalized position of neighbour [y] around [x], given x's anchor [a]
   and degree [d] — read once per node by the callers below. *)
let rel rot x ~a ~d y = (Rotation.position rot x y - a + d) mod d

(* The open window (lo, hi) of normalized positions around border node [x]
   that lies inside F_e: a neighbour y of x is drawn inside iff
   lo < npos x y < hi.  The window's ends are x's border neighbours, so
   border children never fall inside it. *)
let window f x ~next ~a ~d =
  let rot = Config.rot f.cfg in
  match f.case with
  | Unrelated ->
    if x = f.u then (-1, rel rot x ~a ~d f.v) (* Claim 1 (ii) *)
    else if x = f.v then (rel rot x ~a ~d f.u, d) (* Claim 1 (iii) *)
    else if x = top f then
      (* Claim 1 (i): strictly between the branch to v and the branch to u. *)
      (rel rot x ~a ~d f.wv, rel rot x ~a ~d f.wu)
    else begin
      let nx = rel rot x ~a ~d (border_child f x ~next) in
      if Rooted.is_ancestor (Config.tree f.cfg) ~anc:x ~desc:f.u then
        (-1, nx) (* Claim 1 (iv): interior node of the w->u branch. *)
      else (nx, d) (* Claim 1 (v): interior node of the w->v branch. *)
    end
  | Anc_right ->
    (* u is an ancestor of v and the edge leaves u clockwise-after the path
       child w1 (Claim 4 with t_u(v) > t_u(w1)). *)
    if x = f.u then (rel rot x ~a ~d f.wv, rel rot x ~a ~d f.v)
    else if x = f.v then (rel rot x ~a ~d f.u, d)
    else (rel rot x ~a ~d (border_child f x ~next), d)
  | Anc_left ->
    (* Mirror image of Anc_right. *)
    if x = f.u then (rel rot x ~a ~d f.v, rel rot x ~a ~d f.wv)
    else if x = f.v then (-1, rel rot x ~a ~d f.u)
    else (-1, rel rot x ~a ~d (border_child f x ~next))

let child_inside f x y =
  let rot = Config.rot f.cfg in
  let a = anchor f.cfg x and d = Rotation.degree rot x in
  let lo, hi = window f x ~next:(-1) ~a ~d in
  let p = rel rot x ~a ~d y in
  lo < p && p < hi

(* Fold over the tree children of border node [x] hanging inside F_e, in
   rotation order: walk x's rotation across the window itself, so no
   child's position is searched for. *)
let fold_inside f x ~next g acc =
  let rot = Config.rot f.cfg and tree = Config.tree f.cfg in
  let a = anchor f.cfg x and d = Rotation.degree rot x in
  let lo, hi = window f x ~next ~a ~d in
  let acc = ref acc in
  for p = lo + 1 to hi - 1 do
    let y = Rotation.nth rot x ((p + a) mod d) in
    if Rooted.parent tree y = x then acc := g !acc y
  done;
  !acc

let fold_inside_children f x g acc = fold_inside f x ~next:(-1) g acc

(* ------------------------------------------------------------------ *)
(* Interior membership in O(log n) (Remark 1 + Claims 3 and 5).        *)
(* ------------------------------------------------------------------ *)

let is_inside_face f z =
  let cfg = f.cfg in
  let tree = Config.tree cfg in
  if on_border_face f z then false
  else begin
    match f.case with
    | Unrelated ->
      if Rooted.is_ancestor tree ~anc:f.u ~desc:z then
        child_inside f f.u (child_toward cfg f.u z)
      else if Rooted.is_ancestor tree ~anc:f.v ~desc:z then
        child_inside f f.v (child_toward cfg f.v z)
      else if not (Rooted.is_ancestor tree ~anc:(top f) ~desc:z) then false
      else begin
        (* Claim 3 interval, with border nodes already excluded. *)
        let pl = Rooted.pi_left tree in
        pl z > pl f.u + Rooted.size tree f.u - 1 && pl z < pl f.v
      end
    | Anc_left | Anc_right ->
      if not (Rooted.is_ancestor tree ~anc:f.u ~desc:z) || z = f.u then false
      else begin
        let c = child_toward cfg f.u z in
        if c <> f.wv then child_inside f f.u c
        else if Rooted.is_ancestor tree ~anc:f.v ~desc:z then
          child_inside f f.v (child_toward cfg f.v z)
        else begin
          (* Claim 5 interval: Anc_right (the orientation of the Lemma 4
             proof) pairs with the LEFT order, Anc_left with the RIGHT. *)
          let pi =
            match f.case with
            | Anc_right | Unrelated -> Rooted.pi_left tree
            | Anc_left -> Rooted.pi_right tree
          in
          pi z >= pi f.wv && pi z < pi f.v
        end
      end
  end

let is_inside cfg ~u ~v z = is_inside_face (face cfg ~u ~v) z

(* Every interior member, via the local rule: the subtrees hanging inside
   at each border node.  The border is climbed from each endpoint to w, so
   every node's border child is the node visited before it and nothing is
   recomputed.  O(|border| * degree * log n + |interior|). *)
let iter_interior f k =
  let tree = Config.tree f.cfg in
  let hang x ~next =
    fold_inside f x ~next
      (fun () c ->
        let lo = Rooted.pi_left tree c in
        for i = lo to lo + Rooted.size tree c - 1 do
          k (Rooted.node_at_left tree i)
        done)
      ()
  in
  let w = top f in
  let climb x0 =
    let x = ref x0 and next = ref (-1) in
    while !x <> w do
      hang !x ~next:!next;
      next := !x;
      x := Rooted.parent tree !x
    done
  in
  if w <> f.u then climb f.u;
  climb f.v;
  hang w ~next:(-1)

let interior cfg ~u ~v =
  let acc = ref [] in
  iter_interior (face cfg ~u ~v) (fun z -> acc := z :: !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* Exact reference via the two faces of T + e.                         *)
(* ------------------------------------------------------------------ *)

(* Rotation of T + e induced by the configuration's rotation; the root's
   order starts at the position of the virtual root edge. *)
let tree_plus_edge cfg ~u ~v =
  let g = Config.graph cfg in
  let tree = Config.tree cfg in
  let nn = Config.n cfg in
  let root = Rooted.root tree in
  let g' = Graph.of_edges ~n:nn ((u, v) :: Rooted.edges tree) in
  let orders =
    Array.init nn (fun x ->
        let raw =
          if x = root then begin
            match Config.root_first cfg with
            | Some f -> Rotation.order_from (Config.rot cfg) x ~first:f
            | None -> Rotation.order (Config.rot cfg) x
          end
          else Rotation.order (Config.rot cfg) x
        in
        raw |> Array.to_list
        |> List.filter (fun y -> Graph.mem_edge g' x y)
        |> Array.of_list)
  in
  ignore g;
  (g', Rotation.of_orders g' orders)

let interior_reference cfg ~u ~v =
  let tree = Config.tree cfg in
  let root = Rooted.root tree in
  let g', rot' = tree_plus_edge cfg ~u ~v in
  let faces = Rotation.faces g' rot' in
  (match faces with
  | [ _; _ ] -> ()
  | fs ->
    invalid_arg
      (Printf.sprintf "Faces.interior_reference: expected 2 faces, got %d"
         (List.length fs)));
  (* The outer face is the one containing the root corner where the virtual
     root edge sits: the dart from the root to the first neighbour of its
     rotation. *)
  let first_nbr = (Rotation.order rot' root).(0) in
  let is_outer f = List.exists (fun d -> d = (root, first_nbr)) f in
  let inner =
    match faces with
    | [ a; b ] -> if is_outer a then b else a
    | _ -> assert false
  in
  let on_cycle = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace on_cycle x ()) (border cfg ~u ~v);
  let members = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      if not (Hashtbl.mem on_cycle a) then Hashtbl.replace members a ();
      if not (Hashtbl.mem on_cycle b) then Hashtbl.replace members b ())
    inner;
  Hashtbl.fold (fun x () acc -> x :: acc) members []

(* The set Definition 2 is proven to count (Lemmas 3 and 4), measured from
   the exact interior: ground truth for [Weights.weight]. *)
let weight_reference cfg ~u ~v =
  let interior = interior_reference cfg ~u ~v in
  match classify cfg ~u ~v with
  | Anc_left | Anc_right -> List.length interior
  | Unrelated ->
    (* Interior plus the border path from w (exclusive) to v (inclusive). *)
    let tree = Config.tree cfg in
    let w = Rooted.lca tree u v in
    List.length interior + (Rooted.depth tree v - Rooted.depth tree w)

(* Containment: is the real fundamental edge (a, b) inside (the closed
   region of) F_e?  Both endpoints must lie on F_e, and when both sit on the
   border the edge must actually be drawn on the interior side — checked
   with the same positional rule that classifies border corners (Claims 1
   and 4 apply to arbitrary neighbours of border nodes, not only tree
   children). *)
let contains_edge f (a, b) =
  if (a, b) = (f.u, f.v) || (b, a) = (f.u, f.v) then false
  else begin
    let inside_a = is_inside_face f a in
    (inside_a || on_border_face f a)
    &&
    let inside_b = is_inside_face f b in
    (inside_b || on_border_face f b) && (inside_a || inside_b || child_inside f a b)
  end

let edge_in_face cfg ~e:(u, v) ~f = contains_edge (face cfg ~u ~v) f
