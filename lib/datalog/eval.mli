(** Rule-body evaluation by interpretation: the join machinery of
    naive evaluation and of the [compiled_plans = false] configuration,
    kept as the differential-testing oracle of the compiled kernel
    ({!Plan}), which runs every rule and every {!Engine.query}
    otherwise. Its other callers are the compiled kernel's aggregate
    step ({!eval_agg}), {!Maintain}'s re-derivation test, {!Explain}'s
    proof search, and the canonical databases of [Analysis.Contain].

    A body is solved in the greedy order of {!Logic.Rule.next}, the
    order {!Plan} compiles: one literal at a time, each an evaluable
    one ({!Logic.Literal.evaluable}), stopping as soon as no
    substitution is left. Positive atoms read from [db] — except one optional
    [focus] literal which reads from a delta database (the semi-naive
    trick). Negated atoms and aggregate literals read from [neg], which
    equals [db] for stratified evaluation and is a fixed candidate model
    during the well-founded alternating fixpoint. *)

type stats = {
  mutable joins : int;  (** positive-literal extension steps *)
  mutable tuples_scanned : int;
  mutable index_hits : int;
      (** extension steps answered via an index probe *)
  mutable plan_cache_hits : int;
      (** compiled-plan lookups answered from the plan cache (see
          {!Plan}; 0 on the interpreted path) *)
  mutable order_time : float;
      (** wall-clock seconds spent ordering literals / compiling plans
          — on the compiled path this is paid once per (rule, focus),
          not per round. *)
}

exception Diverged of string
(** A fixpoint ran out of its budget: more rounds than [max_rounds]
    (semi-naive, naive, maintenance or tabled evaluation), or an
    alternating fixpoint that cannot settle ({!Wellfounded.alternate}).
    The message says which. Every entry point of {!Engine} that
    evaluates can raise it. *)

val new_stats : unit -> stats

val no_stats : stats
(** Shared sink for callers that don't collect stats. *)

val solve_body :
  ?stats:stats ->
  db:Database.t ->
  neg:Database.t ->
  ?focus:int * Database.t ->
  Logic.Literal.t list ->
  Logic.Subst.t list
(** All substitutions (restricted to body variables) satisfying the
    body. [focus = (i, delta)] forces the [i]-th literal (0-based, must
    be positive) to match against [delta] instead of [db], and ranks it
    first among the evaluable literals. Raises [Invalid_argument] when
    the body is not range-restricted. *)

val derive :
  ?stats:stats ->
  db:Database.t ->
  neg:Database.t ->
  ?focus:int * Database.t ->
  Logic.Rule.t ->
  Logic.Atom.t list
(** Head instances derivable by one rule. All returned atoms are ground
    (guaranteed by rule safety). *)

val positive_positions : Logic.Rule.t -> int list
(** Indexes of the positive literals of a rule's body. *)

val eval_builtin : Logic.Atom.t -> bool
(** Evaluate a ground structural builtin atom (predicate prefixed
    [builtin:]); raises [Invalid_argument] on unknown builtins. *)

val eval_agg :
  stats ->
  neg:Database.t ->
  Logic.Subst.t ->
  Logic.Literal.agg ->
  Logic.Subst.t list
(** Evaluate an aggregate literal under an outer substitution: solve the
    inner conjunction against [neg], group, fold, and return one
    extension of the substitution per surviving group. Shared with the
    compiled-plan kernel ({!Plan}). *)
