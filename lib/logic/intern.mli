(** The global term intern pool.

    Ground terms are hash-consed into a process-global table assigning
    each a stable small int id ({!Term.id}); interning is memoized, id
    equality coincides with structural equality, and ids double as hash
    keys. The datalog layer caches one id per tuple column, turning the
    join kernel's compares and index probes into int operations.

    Ids are never recycled: the pool only grows, bounded by the number
    of distinct ground terms the process ever touches (data values plus
    derived skolems, which {!Datalog.Engine}'s depth guard bounds). *)

val id : Term.t -> int
(** Intern a ground term; raises [Invalid_argument] on non-ground. *)

val id_opt : Term.t -> int option

val find_id : Term.t -> int option
(** Lookup without interning (see {!Term.find_id}). *)

val of_id : int -> Term.t
(** Inverse of {!id}; raises [Invalid_argument] on unknown ids. *)

val ids : Term.t list -> int list

val same : Term.t -> Term.t -> bool
(** Equality through the pool: id comparison for ground terms, falling
    back to structural {!Term.equal} when either side has variables. *)

val size : unit -> int
(** Distinct ground terms interned so far. *)

type stats = {
  interned : int;
  longest_bucket : int;  (** see {!Term.pool_longest_bucket} *)
}

val stats : unit -> stats
