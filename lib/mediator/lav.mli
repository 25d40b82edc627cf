(** Local-as-view mediation by inverse rules — and why the paper
    doesn't use it.

    The Discussion section contrasts the system's global-as-view (GAV)
    integration with LAV approaches like SIMS: "For answering a user
    query on the global schema, an inverse operation is used to map the
    query to appropriate local schemata. Often, such inverse operations
    may not, and in the case of our complex, recursive views, do not
    exist."

    This module implements the classical inverse-rules construction for
    LAV source descriptions that are conjunctive views over a global
    schema, so the claim can be demonstrated rather than asserted:

    - {!invert} produces the inverse rules of a CQ view (skolemising
      existential view variables);
    - {!answer} evaluates a query over the global schema using only the
      sources' extensions, via the inverted rules;
    - {!inversion_obstacle} reports why a given view definition falls
      outside the invertible fragment (recursion through [tc]/
      [has_a_star], aggregation, negation) — exactly the features the
      paper's domain-map views rely on. *)

type view = private {
  vname : string;  (** source relation (the view's extension) *)
  definition : Logic.Rule.t;
      (** a conjunctive query over the global schema *)
}
(** Built only by {!view}, which checks the definition. *)

val view : name:string -> Logic.Rule.t -> (view, string) result
(** The view [name] defined by a conjunctive query: a rule whose body
    holds only positive, non-builtin atoms, with no function symbol in
    its head or body and every head variable in the body. [Error] names
    the first negated, comparison, assignment, aggregate or builtin
    literal, function symbol or unbound head variable. *)

val invert : view -> Logic.Rule.t list
(** One rule per body atom of the definition: the global relation is
    partially reconstructed from the view tuples, with existential view
    variables skolemised ([f_<view>_<var>(head vars)]). *)

val answer :
  views:view list ->
  extensions:Datalog.Database.t ->
  Logic.Atom.t ->
  Datalog.Tuple.t list
(** Evaluate a goal over the global schema from the views' extensions:
    materialize the inverse rules and keep the skolem-free answers
    (the certain answers for CQ views). *)

val inversion_obstacle : Flogic.Molecule.rule -> string option
(** [None] when the rule is an invertible CQ view; otherwise the
    feature that blocks inversion. Applied to the paper's domain-map
    views this returns the recursion/aggregation obstacles the
    Discussion points at. *)
