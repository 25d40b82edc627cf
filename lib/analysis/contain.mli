(** Conjunctive-query containment, satisfiability and semantic rule
    minimization modulo the domain map.

    [contained ctx q1 q2] decides [q1 ⊑ q2] (every answer of [q1] is an
    answer of [q2] in every database closed under the GCM axioms and
    the context's subsumption pairs) by the Chandra–Merlin test: freeze
    [q1]'s body, {e chase} the frozen atoms with the consequences the
    axioms guarantee (declared ⟹ closed, [isa] up-propagation through
    the combined program/domain-map subsumption preorder, [sub]
    reflexivity/transitivity, signature inheritance), and search for a
    homomorphism from [q2]'s body into the chased canonical database
    that maps head to head.

    Non-CQ literals (negation, comparisons, assignments, aggregates)
    are handled conservatively — exact syntactic coverage plus numeric
    interval entailment — so every verdict errs toward "not contained" /
    "satisfiable", never the reverse. All entry points are pure. *)

type ctx
(** Semantic context: the subsumption preorder (program [sub] facts
    combined with the domain map's definite isa/eqv closure), declared
    disjointness pairs, and whether the GCM axioms are in force. *)

val empty_ctx : ctx
(** No subsumption pairs, no disjointness, GCM axioms assumed. *)

val make_ctx :
  ?dm:Domain_map.Dmap.t ->
  ?rules:Logic.Rule.t list ->
  ?disjoint:(string * string) list ->
  ?gcm:bool ->
  unit ->
  ctx
(** [rules] contributes its ground [sub]/[sub_d] facts (truths in every
    model); [dm] contributes {!Domain_map.Closure.isa_tc} with eqv
    edges in both directions. [gcm:false] turns the chase into plain
    freezing (pure Datalog, no F-logic closure). *)

val sub_pairs : ctx -> (string * string) list
(** The transitively-closed proper-subsumption pairs of the context. *)

val contained :
  ?budget:int -> ctx -> Logic.Rule.t -> Logic.Rule.t -> bool
(** [contained ctx q1 q2]: sound, and complete for pure CQs within
    [budget] (default 16) positive body atoms in [q2] (and twice that
    in [q1]) — larger rules conservatively answer [false]. *)

val equivalent : ?budget:int -> ctx -> Logic.Rule.t -> Logic.Rule.t -> bool

val unsatisfiable : ctx -> Logic.Rule.t -> string option
(** [Some reason] when the rule's body can never be satisfied: a
    ground-false comparison, contradictory numeric constraints on one
    variable, a negated atom implied by the positive body under the
    chase, or membership in two declared-disjoint concepts. [None]
    means "not provably unsatisfiable". *)

val implied_atoms : ctx -> Logic.Rule.t -> Logic.Atom.t list
(** Positive body atoms that are individually redundant: dropping the
    atom keeps the rule safe and yields an equivalent rule. *)

val minimize_rule : ctx -> Logic.Rule.t -> Logic.Rule.t
(** Greedily drop implied atoms until none remains. The result is
    equivalent to the input (each step is containment-verified in both
    directions — the candidate is trivially contained in the original).
    Facts and single-atom bodies are returned unchanged. *)

val minimize : ctx -> Logic.Rule.t list -> Logic.Rule.t list
(** {!minimize_rule} on every rule. The engine does not apply it: a
    caller that wants the smaller program builds it with this and
    hands that to the engine. *)

val redundant_view :
  ctx -> against:Logic.Rule.t list -> Logic.Rule.t list -> bool
(** [redundant_view ctx ~against candidate]: every rule of the
    candidate view is contained in some rule of [against] with the same
    head predicate — registering the candidate adds no answers. *)

val resolve_eqs : Logic.Rule.t -> Logic.Rule.t
(** Substitute [V = t] body equations through the rule (occurs-check
    guarded) and drop the trivial equations that result. Exposed for
    the termination analysis, which needs the same normalization to see
    skolem terms placed in head positions. *)
