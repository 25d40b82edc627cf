(** Ground tuples: the rows stored in extensional and intensional
    relations. The wire-level representation stays a list of ground
    terms; relations store {!Packed} rows that cache one intern id per
    column ({!Logic.Term.id}) plus a combined hash, so the join kernel
    compares, hashes and probes rows on ints. *)

type t = Logic.Term.t list

val is_ground : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Interned array rows. Construction interns every column; raises
    [Invalid_argument] on non-ground columns. *)
module Packed : sig
  type t

  val of_list : Logic.Term.t list -> t

  val of_array : Logic.Term.t array -> t

  val of_parts : Logic.Term.t array -> int array -> t
  (** [of_parts terms ids] — kernel fast path. [ids.(i)] must be the
      intern id of [terms.(i)] where known, or -1 to let the
      constructor intern it. Takes ownership of both arrays. *)

  val probe : Logic.Term.t list -> t option
  (** Like {!of_list} but without interning: [None] when some column
      was never interned — no stored row can equal such a probe. *)

  val to_list : t -> Logic.Term.t list
  val arity : t -> int

  val column : t -> int -> Logic.Term.t
  (** O(1) positional access (raises on out-of-range). *)

  val column_id : t -> int -> int
  (** The cached intern id of a column. *)

  val hash : t -> int
  val equal : t -> t -> bool
  (** Id-based equality: int-array comparison, no structural walk. *)
end

(** Mutable hash set of packed rows keyed by their cached id-key (the
    replacement for the former balanced-tree [Tuple.Set]). *)
module Hashset : sig
  type t

  val create : int -> t
  val cardinal : t -> int
  val is_empty : t -> bool
  val mem : t -> Packed.t -> bool

  val mem_ids : t -> int array -> bool
  (** [mem_ids s ids]: the set holds the row whose column intern ids
      are [ids] (its arity is their number). No row is built and
      nothing is interned; an id that is no term's (such as -1)
      matches no row. [ids] is read transiently and may be reused. *)

  val find : t -> Packed.t -> Packed.t option
  (** The canonical stored row equal to the probe, if any — callers use
      it for physical-equality bucket pruning. *)

  val add : t -> Packed.t -> bool
  (** [true] if the row was new. *)

  val add_new : t -> Packed.t -> unit
  (** Insert without the membership walk — only for bulk loads whose
      caller guarantees the row is absent (a deduplicated checkpoint
      frame). Inserting a duplicate breaks the set invariant. *)

  val remove : t -> Packed.t -> bool
  (** [true] if the row was present. *)

  val iter : (Packed.t -> unit) -> t -> unit
  val fold : (Packed.t -> 'a -> 'a) -> t -> 'a -> 'a

  val for_all : (Packed.t -> bool) -> t -> bool
  (** Stops at the first row that fails the test. *)

  val copy : t -> t
end
