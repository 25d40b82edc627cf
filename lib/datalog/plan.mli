(** Compiled rule plans: the join kernel's fast path.

    A rule body is compiled once per delta-focus position into an
    ordered array of ops over a slot-numbered environment (a fixed
    [Term.t array] replacing the string-keyed substitution maps of the
    interpreted path). Compilation fixes the body's literal order by
    stepping {!Logic.Rule.next} through the whole body (the order of
    {!Logic.Rule.order}), the step {!Eval.solve_body} takes one literal
    at a time, so compiled and interpreted evaluation visit literals in
    the same order; the plan pays for it once per (rule, focus) instead
    of once per fixpoint round. Positive
    literals become indexed lookups with precomputed key extractors
    against the signature indexes of {!Relation}; a positive literal
    whose every column is bound becomes a membership test on the
    relation's row set ({!Relation.mem_ids}), so no index keys every
    column. Comparisons, negations, assignments and aggregates become
    residual filter/bind steps. Lookup keys are looked up in the term
    pool, never interned: a term the pool does not know is in no stored
    row.

    Rule plans are cached globally, keyed by (rule, focus); the cache
    is the module's only mutable state. {!Datalog.Engine.query}
    compiles each query with {!compile} and never caches it. The
    interpreted path in {!Eval} is kept as the differential-testing
    oracle (see [test/test_differential.ml]). *)

type t
(** A compiled plan for one rule and one optional focus position. *)

val compile : Logic.Rule.t -> focus:int option -> t
(** Compile without consulting the cache. Raises [Invalid_argument] if
    the body is not range-restricted (same condition as
    {!Eval.solve_body}, detected at compile time). *)

val lookup : ?stats:Eval.stats -> Logic.Rule.t -> focus:int option -> t
(** Cached compile. Increments [stats.plan_cache_hits] on a hit and
    adds compile time to [stats.order_time] on a miss. *)

val run :
  ?stats:Eval.stats ->
  db:Database.t ->
  neg:Database.t ->
  ?delta:Database.t ->
  t ->
  Logic.Atom.t list
(** Execute a plan: all derivable ground head instances. A plan
    compiled with a focus must be run with [delta] (the focus literal
    reads from it); a plan without focus ignores [delta]. *)

val derive :
  ?stats:Eval.stats ->
  db:Database.t ->
  neg:Database.t ->
  ?focus:int * Database.t ->
  Logic.Rule.t ->
  Logic.Atom.t list
(** Drop-in replacement for {!Eval.derive} on the compiled path:
    cached-compile then run. *)

val streamable : t -> bool
(** Whether {!run_stream}'s [emit] may insert into the plan's head
    relation while the plan executes: true unless the plan full-scans
    its own head predicate (mutating a hash table under iteration) or
    contains an aggregate (whose subquery re-enters the interpreter
    over the database). Keyed scans and delta scans iterate immutable
    snapshots, so they tolerate insertion while they run. *)

val reads_own_head : t -> bool
(** Whether a non-focus scan of the plan reads its own head predicate.
    {!Seminaive} buffers such plans instead of streaming them, so that
    one execution's emissions are never visible to its own probes:
    streaming would derive some facts a round earlier and change the
    round count. *)

val run_stream :
  ?stats:Eval.stats ->
  max_term_depth:int ->
  db:Database.t ->
  neg:Database.t ->
  ?delta:Database.t ->
  ?delta_rows:Tuple.Packed.t list ->
  t ->
  emit:(Tuple.Packed.t -> unit) ->
  int
(** Like {!run_rows} but hands each packed row to [emit] as it is
    derived (returning the suppression count), so a caller cleared by
    {!streamable} can absorb rows without buffering them first. *)

val focus_pred : t -> string option
(** Predicate of the plan's delta-focus literal, if compiled with one.
    Lets a caller that keeps its own per-predicate delta rows hand them
    to {!run_rows} via [delta_rows] without building a database. *)

val run_rows :
  ?stats:Eval.stats ->
  max_term_depth:int ->
  db:Database.t ->
  neg:Database.t ->
  ?delta:Database.t ->
  ?delta_rows:Tuple.Packed.t list ->
  t ->
  Tuple.Packed.t list * int
(** Like {!run} but emits packed rows (see {!derive_rows}); for callers
    that hold pre-resolved plans. [delta_rows], when given, feeds the
    focus scan directly (taking precedence over [delta]) — the
    semi-naive driver keeps each round's delta as per-predicate row
    lists, not a database, because rows entering the delta are already
    deduplicated by their insertion into the model. *)

val derive_rows :
  ?stats:Eval.stats ->
  max_term_depth:int ->
  db:Database.t ->
  neg:Database.t ->
  ?focus:int * Database.t ->
  Logic.Rule.t ->
  Tuple.Packed.t list * int
(** Like {!derive} but emits packed rows directly (reusing the intern
    ids already tracked by the executor, so absorbing a row into a
    relation re-interns nothing) and applies the skolem depth guard
    before packing — heads deeper than [max_term_depth] are counted in
    the returned suppression count, not interned, not returned. The
    hot path under {!Seminaive.run}. *)

val cache_size : unit -> int
val clear_cache : unit -> unit
