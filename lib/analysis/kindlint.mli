(** kindlint — whole-program entry points over the analysis passes.

    The pass modules ({!Rule_lint}, {!Strat_lint}, {!Schema_lint},
    {!Cap_lint}, {!Dmap_lint}) each check one artifact in isolation;
    this module sequences them over the two program shapes the rest of
    the system produces — a compiled Datalog program and an F-logic
    program — so callers (the [kindctl lint] command, mediator
    registration via [Mediation.Lint]) get one diagnostic list.

    Everything here is {e static}: nothing is materialized, no wrapper
    is contacted. *)

val open_predicate :
  ?signature:Flogic.Signature.t ->
  ?known_predicates:string list ->
  Logic.Rule.t list ->
  string ->
  bool
(** The open-world boundary used for {!Type_lint}: declared relations,
    caller-known predicates, and reserved GCM predicates that nothing
    in [rules] defines are assumed populated externally and never cause
    emptiness verdicts. *)

val lint_datalog :
  ?signature:Flogic.Signature.t ->
  ?known_predicates:string list ->
  ?cones:Absint.cones ->
  ?edb:Datalog.Database.t ->
  ?budget:int ->
  ?seed:(string -> Card.interval option) ->
  ?dm:Domain_map.Dmap.t ->
  ?gcm:bool ->
  Datalog.Program.t ->
  Diagnostic.t list
(** Passes 1 (rule lint), 2 (stratification), 6 (type/emptiness
    inference, seeded with [edb] and widened over [cones]), 8
    (cardinality/cost hazards, {!Cost_lint}, capped by [seed] and the
    row [budget]), 9 (semantic containment, {!Contain_lint}, modulo the
    optional domain map [dm]) and 10 (skolem-safety, {!Term_lint}) on a
    compiled Datalog program. A negative cycle is a warning: the engine
    evaluates such a program under the well-founded semantics. The
    result is {!Diagnostic.normalize}d. *)

val lint_program :
  ?known_class:(string -> bool) ->
  ?known_method:(string -> bool) ->
  ?known_predicates:string list ->
  ?positions:(int * int) list ->
  ?cones:Absint.cones ->
  ?sources:string list ->
  ?class_sources:(string -> string list) ->
  ?budget:int ->
  ?seed:(string -> Card.interval option) ->
  ?dm:Domain_map.Dmap.t ->
  Flogic.Fl_program.t ->
  Diagnostic.t list
(** Passes 1–3 plus the abstract-interpretation passes (6: type /
    emptiness, 7: provenance, 8: cardinality/cost) on an F-logic
    program:

    - schema conformance of the molecule rules against the program's
      signature plus the classes/methods the program itself declares
      (extend with [known_class]/[known_method] for federation-level
      universes, e.g. domain-map concepts);
    - rule lint on the compiled Datalog rules — except the
      singleton-variable check, which runs on the surface molecules
      (one multi-head molecule compiles to several Datalog rules
      sharing a body, so compiled-level occurrence counts lie);
    - stratification of the full program, GCM axioms included;
    - type/domain inference ({!Type_lint}) over the full compiled
      program (axioms included, so [isa] closes over the program's own
      facts), reporting only on the user's rules;
    - source provenance ({!Prov_lint}) over the surface molecules, with
      [sources] the registered source names (default: none — standalone
      programs are only flagged on qualified ['SRC.x'] references);
    - cardinality/cost hazards ({!Cost_lint}) over the full compiled
      program, reporting only on the user's rules; [seed] caps open
      predicates (store fact counts, cone sizes), [budget] turns
      over-budget estimates into reject-level errors;
    - semantic containment ({!Contain_lint}, pass 9) and skolem-safety
      ({!Term_lint}, pass 10) over the full compiled program, reporting
      only on the user's rules; [dm] widens the containment chase and
      the termination sub-hierarchy with the federation domain map.

    The result is {!Diagnostic.normalize}d: sorted by (location, pass,
    code) with exact duplicates removed, independent of pass
    registration order.

    [positions] (from {!Flogic.Fl_parser.parsed.rule_positions}) aligns
    1-based (line, column) pairs with the program's rules; every
    diagnostic — including those on compiled Datalog rules, which map
    back to their source molecule — then carries a source position.

    A molecule set {!Flogic.Compile} rejects outright yields a single
    {b compile-error} diagnostic (plus whatever schema conformance
    found). *)
