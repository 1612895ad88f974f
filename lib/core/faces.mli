(** Fundamental faces of a planar configuration (Sections 2 and 4).

    For a real fundamental edge e = uv (normalized so that
    [pi_left u < pi_left v]), the fundamental face F_e is the face of T + e
    not containing the virtual root.  The module provides the paper's
    O(log n) local characterization (Claims 1/3/4/5, Remark 1) — the only
    rule the algorithm runs, including the separator's Phase 4/5 sweeps —
    and an exact face-traversal reference that serves solely as the test
    oracle; the test suite enforces their agreement. *)

type edge_case =
  | Unrelated  (** neither endpoint is an ancestor of the other *)
  | Anc_left  (** u ancestor of v, edge E-left oriented (Definition 1) *)
  | Anc_right

val normalize : Config.t -> int * int -> int * int
(** Order an edge's endpoints by LEFT position. *)

type face
(** The per-edge invariants of F_e — its case, the top border node
    [w = lca u v] and w's border children — computed once so that every
    local query on the same edge reuses them. *)

val face : Config.t -> u:int -> v:int -> face
(** O(log n). *)

val config : face -> Config.t
val face_case : face -> edge_case

val branch_v : face -> int
(** Child of [lca u v] on the border towards [v]. *)

val classify : Config.t -> u:int -> v:int -> edge_case

val npos : Config.t -> int -> int -> int
(** Rotation position of a neighbour, normalized so the parent edge (or the
    virtual root edge) sits at 0. *)

val child_toward : Config.t -> int -> int -> int
(** Child of the first node on the tree path towards its descendant. *)

val on_border : Config.t -> u:int -> v:int -> int -> bool
(** Is the node on the tree path between u and v? *)

val border : Config.t -> u:int -> v:int -> int list
(** The border path C_e, from u to v. *)

val fold_inside_children : face -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over the children of a border node hanging inside F_e, in rotation
    order. *)

val is_inside : Config.t -> u:int -> v:int -> int -> bool
(** O(log n) interior membership (Remark 1 / Claims 3 and 5). *)

val iter_interior : face -> (int -> unit) -> unit
(** Every interior member once, via the local characterization, in
    O(|border| * degree * log n + |interior|) and without allocating per
    member. *)

val interior : Config.t -> u:int -> v:int -> int list
(** All interior members, via {!iter_interior}. *)

val interior_reference : Config.t -> u:int -> v:int -> int list
(** Test oracle only: the exact interior, by traversing the two faces of a
    freshly built T + e and discarding the one holding the virtual root
    corner.  O(n log n) with heavy allocation; the algorithm never calls
    it. *)

val weight_reference : Config.t -> u:int -> v:int -> int
(** Test oracle only: what Lemmas 3/4 prove [Weights.weight] counts,
    measured from {!interior_reference}. *)

val contains_edge : face -> int * int -> bool
(** Is the real fundamental edge contained in (the closed region of) the
    face? *)

val edge_in_face : Config.t -> e:int * int -> f:int * int -> bool
(** [edge_in_face cfg ~e ~f] is [contains_edge (face cfg e) f]. *)
