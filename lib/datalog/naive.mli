(** Naive bottom-up evaluation: re-derive everything from scratch each
    round until fixpoint. Kept as the baseline for the engine ablation
    bench (A1 in DESIGN.md); {!Seminaive} is the production strategy. *)

type outcome = {
  rounds : int;
  derived : int;          (** new facts added over the run *)
  skolems_suppressed : int; (** derivations dropped by the depth bound *)
}

val run :
  ?stats:Eval.stats ->
  ?max_term_depth:int ->
  ?max_rounds:int ->
  neg:Database.t ->
  Logic.Rule.t list ->
  Database.t ->
  outcome
(** Evaluate the rules against (and into) [db], with negation and
    aggregation reading [neg]. Mutates [db]. Raises
    {!Eval.Diverged} when [max_rounds] is exceeded (runaway recursion
    through skolems or arithmetic). *)
