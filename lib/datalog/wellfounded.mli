(** Well-founded semantics via Van Gelder's alternating fixpoint.

    The GCM extension mechanism requires "Datalog with well-founded
    negation", which expresses exactly FO(LFP) on ordered structures
    (Section 3, (EXPR)/(SEM) of the paper). Stratified programs get
    identical results from {!Engine.materialize}; this module exists for
    programs where negation is entangled with recursion, such as
    nonmonotonic inheritance over a registered domain map (Section 4,
    "if we want to specify that it only projects to the latter").

    Aggregates are treated like negation: each alternating step
    evaluates them against the fixed candidate model of the previous
    step. *)

type model = {
  true_facts : Database.t;   (** facts true in the well-founded model *)
  undefined : Database.t;    (** facts with truth value "undefined" *)
  alternations : int;        (** number of Γ applications performed *)
  skolems_suppressed : int;
      (** skolem heads deeper than [max_term_depth] that the Γ
          application producing [true_facts] suppressed *)
}

val compute :
  ?stats:Eval.stats ->
  ?compiled:bool ->
  ?max_term_depth:int ->
  ?max_rounds:int ->
  Program.t ->
  Database.t ->
  model
(** [compute p edb] returns the well-founded model of [p] over the
    extensional database [edb] (which is not mutated). [true_facts]
    includes the EDB. *)

val is_total : model -> bool
(** [true] iff nothing is undefined — e.g. always for stratified
    programs. *)
