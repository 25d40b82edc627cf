(** Semi-naive bottom-up evaluation: after the first round, each rule is
    re-evaluated once per positive body literal with that literal
    focused on the delta (facts new in the previous round), so unchanged
    joins are never recomputed. *)

type outcome = {
  rounds : int;
  derived : int;
  skolems_suppressed : int;
}

val run :
  ?stats:Eval.stats ->
  ?compiled:bool ->
  ?max_term_depth:int ->
  ?max_rounds:int ->
  neg:Database.t ->
  Logic.Rule.t list ->
  Database.t ->
  outcome
(** Same contract as {!Naive.run}, {!Eval.Diverged} included.
    Mutates [db]. [compiled] (default [true]) derives through cached
    {!Plan}s; [false] keeps the interpreted {!Eval.derive} path — the
    differential-testing oracle. *)
