(** A mutable extensional relation: a hash set of packed ground rows
    (see {!Tuple.Packed}) with multi-column hash indexes over
    bound-position signatures, built lazily and maintained
    incrementally.

    Index choice is selectivity-aware: a lookup over a pattern uses the
    index on the pattern's exact ground-position signature when it
    exists (one probe pins every ground column), otherwise either a
    sufficiently selective narrower index (judged by distinct-key
    counts) or a freshly built exact one. *)

type t

val create : ?hint:int -> unit -> t

val cardinal : t -> int
val is_empty : t -> bool

val mem : t -> Tuple.t -> bool

val add : t -> Tuple.t -> bool
(** [add r tup] inserts a ground tuple; returns [true] if it was new.
    Raises [Invalid_argument] on non-ground tuples. Every live index is
    updated in place. *)

val remove : t -> Tuple.t -> bool
(** [remove r tup] deletes a tuple; returns [true] if it was present.
    Index buckets are pruned in place by physical equality on the
    canonical stored row — no structural compares. *)

val subset : t -> t -> bool
(** [subset a b]: every row of [a] is a row of [b]. Compares stored
    rows by their intern ids, without rebuilding terms. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> Tuple.t list
(** Sorted by {!Tuple.compare} (hash-set iteration order is not
    stable; enumerated extents stay deterministic). *)

(** {1 Packed access — the join kernel's view} *)

val mem_packed : t -> Tuple.Packed.t -> bool

val mem_ids : t -> int array -> bool
(** [mem_ids r ids]: [r] holds the row whose column intern ids are
    [ids] — a row-set lookup that builds no index and interns nothing
    (the compiled kernel's test for a scan with every column bound). *)

val add_packed : t -> Tuple.Packed.t -> bool

val load_packed : t -> Tuple.Packed.t -> unit
(** [add_packed] minus the membership walk: only for bulk loads whose
    caller guarantees the row is absent (the snapshot reader filling a
    fresh relation from a deduplicated frame). Built indexes are kept
    in sync exactly as by {!add_packed}. *)

val iter_packed : (Tuple.Packed.t -> unit) -> t -> unit
val fold_packed : (Tuple.Packed.t -> 'a -> 'a) -> t -> 'a -> 'a

val lookup_key : t -> positions:int array -> int array -> Tuple.Packed.t list
(** [lookup_key r ~positions key] returns the rows whose columns at
    [positions] (strictly increasing) have exactly the intern ids
    [key], using (and if needed building) the index on that
    signature. *)

val lookup_key1 : t -> pos:int -> int -> Tuple.Packed.t list
(** Single-column [lookup_key]: probes the int-keyed table directly,
    no key array. *)

val prober1 : t -> pos:int -> int -> Tuple.Packed.t list
(** [prober1 r ~pos] resolves (building if needed) the single-column
    index once and returns a probe function over it. The probe stays
    valid across interleaved [add]/[remove] — index tables are mutated
    in place, never replaced. *)

val prober : t -> positions:int array -> int array -> Tuple.Packed.t list
(** Multi-column {!prober1}. The key array is read transiently per
    probe and may be reused by the caller. *)

(** {1 Term-level lookups} *)

val lookup : t -> pos:int -> Logic.Term.t -> Tuple.t list
(** [lookup r ~pos key] returns the tuples whose [pos]-th component
    equals [key], via the single-column index on [pos]. *)

val warm_index : t -> pos:int -> unit
(** Build the single-column index on [pos] now if absent. Indexes are
    otherwise created lazily by the first lookup that needs them; a
    long-lived caller (incremental maintenance) warms the join
    positions up front so the first delta is not charged a full index
    build. *)

val settle : t -> unit
(** Catch every built index up with the insertion log (which is then
    dropped). Afterwards, lookups over indexes that already exist are
    read-only until the relation is next mutated. *)

val select : t -> pattern:Logic.Term.t list -> Tuple.t list
(** Tuples matching the pattern (variables are wildcards, repeated
    variables must match equal components). Uses the most selective
    applicable index when the pattern has ground components; a pattern
    with every component ground is a row-set lookup ({!mem_ids}) that
    builds no index. *)

val copy : t -> t
(** Snapshot: rows and all built indexes are cloned, so lookups after a
    copy keep their indexes and mutations never alias across copies. *)

val of_list : Tuple.t list -> t
val pp : Format.formatter -> t -> unit
