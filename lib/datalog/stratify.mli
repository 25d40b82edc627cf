(** Predicate-level stratification.

    A program is stratified when no predicate depends on itself through
    negation or aggregation. Stratified programs are evaluated stratum
    by stratum; non-stratified programs get the well-founded semantics
    ({!Wellfounded}), which is the semantics the paper requires of the
    GCM rule language (Section 3, (SEM)). Both rest on one Tarjan pass
    over the predicate graph ({!layers}). *)

type edge = {
  from_pred : string;  (** the head predicate *)
  to_pred : string;    (** a predicate its body reads *)
  nonmono : bool;      (** read through negation or aggregation *)
}

val dependency_edges : Program.t -> edge list

val sccs : Logic.Rule.t list -> string -> int option
(** Tarjan's strongly connected components of the head→body predicate
    graph of the rules: two predicates get the same number iff each
    depends on the other, and a component is numbered after every
    component it depends on. [None] for a predicate the rules do not
    mention. *)

type layers = {
  strata : string list list;
      (** predicate strata, bottom (stratum 0) first, each sorted:
          a component sits one stratum above every component it reads
          through negation or aggregation, and no lower than every
          component it reads positively. Edges inside a component set
          no bound, so for an unstratified program these are the
          strata of its relaxation (every nonmonotonic edge inside a
          component dropped). *)
  rules : Logic.Rule.t list list;
      (** the rules grouped by the stratum of their head, aligned with
          [strata] ([[[]]] for an empty program) *)
  cyclic : edge list;
      (** the nonmonotonic edges inside a component; [[]] iff the
          program is stratified *)
  scc : string -> int;
      (** the component of every predicate of the program, numbered as
          by {!sccs}; raises [Not_found] on any other name *)
}

val layers : Program.t -> layers

type outcome =
  | Stratified of string list list
      (** predicate strata, bottom (stratum 0) first; every predicate of
          the program appears in exactly one stratum *)
  | Unstratified of string list
      (** the predicates of a component (a set of mutually dependent
          predicates) with a nonmonotonic edge inside it *)

val stratify : Program.t -> outcome

val is_stratified : Program.t -> bool

val rules_by_stratum :
  Program.t -> (Logic.Rule.t list list, string list) result
(** Rules grouped by the stratum of their head predicate, bottom first;
    [Error cycle] when the program is not stratified. *)
