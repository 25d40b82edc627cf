(** Cardinality/cost abstract interpretation.

    One more instantiation of the {!Absint.Make} worklist fixpoint over
    the predicate dependency graph: where {!Absint.emptiness} tracks
    {e which values} can reach a column, this pass tracks {e how many}
    — a per-predicate cardinality interval, a per-column bound on
    distinct values, and single-column key flags — seeded from
    in-program facts, an optional EDB, and caller-supplied caps (store
    fact counts, capability templates, domain-map cone sizes).

    Soundness contract: for every predicate, [card] contains the true
    extent of the least (or well-founded) model of the analyzed rules
    over the seeded base facts — negation, comparisons and assignments
    are treated as filters (never shrink an estimate below what the
    positive part allows... i.e. never contribute a factor < 1 is not
    needed for an {e upper} bound: they contribute factor 1), aggregates
    are bounded by the product of their inner extents, and recursive
    rules that synthesise fresh values (function symbols in the head,
    arithmetic, aggregation on a cycle) get an unbounded interval
    rather than a guess. Finite bounds saturate (they stay finite and
    sound); widening snaps growing bounds to powers of two only for
    predicates on dependency cycles, so DAG programs keep exact counts.

    The per-rule walk follows the literal order the engine runs
    without a focus ({!Logic.Rule.order}, the order of every non-delta
    {!Datalog.Plan}) and prices it with a selectivity-based join-cost
    model: its costs and cross products are the raw material for the
    {!Cost_lint} diagnostics pass, the mediator's [cost_budget] and
    [kindctl cost]. For a recursive rule that is the order of its first
    semi-naive round only: later rounds run one plan per recursive
    literal with that literal first ([Rule.order ~focus:i]), whose cross
    products are not counted here. *)

(** {1 Intervals and per-predicate info} *)

type interval = { lo : int; hi : int option }
(** [hi = None] means unbounded. *)

val pp_interval : Format.formatter -> interval -> unit
(** Prints a saturated upper bound as unbounded ([∞]), like
    [hi = None]. *)

val contains : interval -> int -> bool

val huge : int
(** Finite saturation point of the interval arithmetic
    ([max_int / 4]). *)

val finite : int option -> int option
(** A bound worth quoting: [None] for an unbounded bound and for one
    that saturated at {!huge} — sound, but no useful bound. Reports
    (text, JSON, diagnostics) print bounds through it. *)

(** {1 Per-rule cost} *)

type rule_cost = {
  order : int list;
      (** the body order the engine runs without a focus
          ({!Logic.Rule.order}; for a recursive rule, its first
          semi-naive round), as literal indices *)
  est : interval;  (** sound bound on tuples the rule derives *)
  cost : int option;  (** heuristic work units for [order] *)
  cross_products : int;
      (** join steps scanning a positive literal that shares no bound
          variable with what came before (counted only when both sides
          can exceed one row) *)
  inputs_hi : int option;  (** Σ hi over positive body predicates *)
  recursive : bool;  (** some body predicate shares the head's SCC *)
  growing : bool;
      (** recursive {e and} synthesising fresh values — the head has no
          finite bound (boundedness check) *)
}

(** {1 The analysis} *)

type result

val analyze :
  ?max_steps:int ->
  ?edb:Datalog.Database.t ->
  ?assume_nonempty:(string -> bool) ->
  ?seed:(string -> interval option) ->
  Logic.Rule.t list ->
  result
(** Run the fixpoint. [assume_nonempty] marks open predicates
    (externally populated): their extent is unbounded unless [seed]
    caps it. [seed] supplies trusted upper-bound caps per predicate —
    store fact counts, capability templates, cone sizes. [edb] seeds
    base predicates with exact counts, per-column distincts and keys.
    Raises {!Absint.Diverged} if [max_steps] is exceeded (the domain
    widens, so this needs an adversarial program). *)

val card : result -> string -> interval
(** Sound bounds on the predicate's extent in the model. *)

val column_bounds : result -> string -> int option array
(** Per-column distinct-value upper bounds ([[||]] = no information). *)

val keys : result -> string -> int list
(** Columns inferred to be single-column keys. *)

val unbounded : result -> string -> bool
(** [card] has no finite upper bound (failed boundedness check or
    unbounded inputs). *)

val intervals : result -> (string * interval) list
(** All predicates mentioned by the analyzed rules, sorted. *)

val rule_costs : result -> (Logic.Rule.t * rule_cost) list
(** Cost records for every non-fact rule, in input order. *)
