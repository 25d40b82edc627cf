(** Pass 2 — stratification analysis.

    Where {!Datalog.Stratify.Unstratified} carries a bare predicate list,
    this pass extracts an {e actual} offending cycle through the
    dependency graph — the path a reader can follow to see why the
    program destratifies — and flags the rules that sit on it.

    Codes:
    - {b negative-cycle}: a dependency cycle through at least one
      negated or aggregated edge, rendered as
      [p -¬-> q -> r -> p]. Severity is [Warning]: the engine falls
      back to the well-founded semantics, as the paper's Sec. 3 (SEM)
      permits.
    - {b unmaintainable-rule} (warning): a rule on such a cycle —
      programs containing it cannot be incrementally maintained
      ({!Datalog.Maintain.init} refuses unstratified programs), so
      every source update triggers a full rebuild. *)

val negative_cycle : Datalog.Program.t -> Datalog.Stratify.edge list option
(** A shortest-by-construction dependency cycle with at least one
    nonmonotonic edge, as consecutive edges (the last edge returns to
    the first edge's source); [None] iff the program is stratified. *)

val pp_cycle : Format.formatter -> Datalog.Stratify.edge list -> unit
(** [p -¬-> q -> p]. *)

val lint :
  ?loc:(int -> Logic.Rule.t -> Diagnostic.location) ->
  Datalog.Program.t ->
  Diagnostic.t list
(** [loc] maps a rule index and rule to its diagnostic location
    (default: no source position). *)
