(** A mutable fact base: one {!Relation} per predicate name. *)

type t

val create : unit -> t

val relation : t -> string -> Relation.t
(** The relation for a predicate, created empty on first access. *)

val relation_opt : t -> string -> Relation.t option
(** The relation if the predicate has ever been touched. *)

val relation_hint : t -> string -> hint:int -> Relation.t
(** Like {!relation}, but a relation created by this call is sized for
    [hint] rows up front — the bulk-load entry for readers that know
    the row count (the snapshot loader), avoiding the doubling-resize
    cascade of [hint] successive inserts. *)

val add_fact : t -> Logic.Atom.t -> bool
(** Insert a ground atom; [true] if new. Raises [Invalid_argument] on
    non-ground atoms. *)

val add_tuple : t -> string -> Tuple.t -> bool

val remove_fact : t -> Logic.Atom.t -> bool
(** Delete a ground fact; [true] if it was present. *)

val mem : t -> Logic.Atom.t -> bool
val predicates : t -> string list
val cardinal : t -> int
(** Total number of facts across all predicates. *)

val count : t -> string -> int
(** Number of facts of one predicate. *)

val facts : t -> string -> Logic.Atom.t list

val all_facts : t -> Logic.Atom.t list

val copy : ?keep:(string -> bool) -> t -> t
(** Snapshot: every relation is copied with its rows and built indexes
    cloned (see {!Relation.copy}), so the copy starts warm and
    mutations never alias. [keep] (default: every predicate) limits the
    copy to the predicates it accepts. *)

val equal : t -> t -> bool
(** Extensional equality: the same facts under every predicate
    (predicates that exist but hold no tuples are ignored, so a
    database that merely {e touched} a relation equals one that never
    did). Equal cardinals plus a subset test on the stored rows
    ({!Relation.subset}): one id-keyed probe per fact, no sorting. *)

val diff : t -> t -> t
(** [diff a b]: a fresh database of the facts of [a] that are not in
    [b], shared row by row with [a]. It touches only the predicates it
    puts a fact in. *)

val settle : t -> unit
(** {!Relation.settle} every relation: each index built so far catches
    up with its relation's insertion log, so reads over those indexes
    no longer mutate the database. *)

val merge_into : dst:t -> t -> int
(** Add every fact of the source database into [dst]; returns the number
    of facts that were new. *)

val of_facts : Logic.Atom.t list -> t
val pp : Format.formatter -> t -> unit
