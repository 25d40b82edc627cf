(** Graph operations on domain maps (Section 4, "Integrated Views Using
    Domain Maps").

    The paper's rules:
    {v
    tc(R)(X,Y) :- R(X,Y).
    tc(R)(X,Y) :- tc(R)(X,Z), tc(R)(Z,Y).
    dc(R)(X,Y) :- tc(isa)(X,Z), R(Z,Y).
    dc(R)(X,Y) :- R(X,Z), tc(isa)(Z,Y).
    has_a_star(X,Y) :- dc(has_a)(X,Y).
    v}

    [dc R] additionally contains [R] itself (the paper's [tc] is
    irreflexive, but a deductive closure that dropped the base edges
    would make the recursive traversal of Example 4 skip direct links).
    Note that [has_a_star] is deliberately {e not} transitive — the
    paper: "it would be wasteful to compute the much larger
    [tc(has_a_star)] ... since a recursive traversal of the direct links
    is sufficient". The ablation bench A1/F1 quantifies that remark by
    comparing against {!tc} of the same relation.

    All functions operate on named-concept links with anonymous nodes
    already resolved ({!Dmap.isa_links}); by default only definite links
    are used, [include_possible] adds OR alternatives.

    The closures of a map — the isa closure with each concept's
    ancestors and descendants, each role's traversal relation with its
    successor lists, and each root's downward region — are computed
    once per map value and memoised on its physical identity. A
    [Dmap.t] is immutable (an edit returns a new value), so a memoised
    closure can never be stale. The memo holds the closures of the last
    map asked about (one slot with, one without possible links); a call
    on another map recomputes them and takes the slot. *)

type pairs = (string * string) list

val tc : pairs -> pairs
(** Transitive closure of an arbitrary binary relation (irreflexive
    unless the input has cycles). *)

val isa_tc : ?include_possible:bool -> Dmap.t -> pairs
(** [tc] of the isa links, eqv edges contributing both directions;
    sorted. Memoised per map value. *)

val dc : isa_tc:pairs -> pairs -> pairs
(** Deductive closure of a relation w.r.t. a precomputed isa closure:
    base edges, plus links propagated down (from superclass to
    subclass) and up (target generalised). *)

val role_dc : ?include_possible:bool -> Dmap.t -> role:string -> pairs
(** [dc] of one role's links (over the memoised {!isa_tc}). *)

val has_a_star : ?include_possible:bool -> ?role:string -> Dmap.t -> pairs
(** The paper's [has_a_star]: [dc] of the [has] role (override with
    [role]). *)

val dc_down : isa_tc:pairs -> pairs -> pairs
(** Like {!dc} but without the upward target generalisation: base links
    plus links inherited by specialisations of the source. This is the
    relation the Example 4 traversal follows — generalising targets and
    then descending isa would leak into sibling subtrees (hippocampus
    has pyramidal cells, pyramidal isa* neuron, purkinje isa* neuron —
    but the hippocampus does not contain Purkinje cells). *)

val traversal : ?include_possible:bool -> ?role:string -> Dmap.t -> pairs
(** The downward-traversal relation: [dc_down] of the part-of role
    (default ["has"]) plus isa descent (from a concept to its
    specialisations); sorted. Drives {!Region} and the aggregate
    operator. Memoised per map value and role. *)

val reachable : pairs -> string -> string list
(** Nodes reachable from a start node by recursively traversing direct
    links — the traversal Example 4's [aggregate] performs. Includes the
    start node; sorted. *)

val descendants : Dmap.t -> string -> string list
(** Concepts [d] with [d isa* c], including [c]; sorted. Read from the
    map's memoised closure, so [descendants dm] can be applied to many
    concepts at the cost of one memo lookup. It is also the [members]
    half of the abstract-interpretation cone oracle
    ([Analysis.Absint.cones]) — concept cones are the domain map's
    "semantic coordinate system" used as abstract values. *)

val ancestors : Dmap.t -> string -> string list
(** Concepts [a] with [c isa* a], including [c]; sorted. Memoised like
    {!descendants}. *)

val successors :
  ?include_possible:bool -> ?role:string -> Dmap.t -> string -> string list
(** Direct successors of a concept in the {!traversal} relation; sorted.
    The lists are built once per map value and role. *)

val region :
  ?include_possible:bool -> ?role:string -> Dmap.t -> string -> string list
(** The downward region of a root: {!reachable} over the {!traversal}
    relation, root included; sorted. Each root's region is computed on
    first request and then memoised with the map. *)
