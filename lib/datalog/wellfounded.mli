(** Well-founded semantics via Van Gelder's alternating fixpoint.

    The GCM extension mechanism requires "Datalog with well-founded
    negation", which expresses exactly FO(LFP) on ordered structures
    (Section 3, (EXPR)/(SEM) of the paper). Stratified programs get
    identical results from {!Engine.materialize}; this module exists for
    programs where negation is entangled with recursion, such as
    nonmonotonic inheritance over a registered domain map (Section 4,
    "if we want to specify that it only projects to the latter").

    {!compute} is the three-valued API and the differential oracle.
    {!Engine.materialize} certifies most unstratified programs from
    their stratified relaxation instead, and calls {!alternate} only
    for a stratum whose certificate fails (DESIGN.md §9).

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
    includes the EDB. The alternation starts from A_0 = [edb] and stops
    at the first A_{j+1} = A_j or A_{j+1} = A_{j-1} (j ≥ 2): three Γ
    applications for a program whose first alternation settles it. *)

val alternate :
  ?stats:Eval.stats ->
  ?compiled:bool ->
  ?max_term_depth:int ->
  ?max_rounds:int ->
  Logic.Rule.t list ->
  base:Database.t ->
  Database.t * int ->
  model
(** [alternate rules ~base (a1, s)] continues the alternating fixpoint
    of [rules] over the facts [base] from its first iterate
    [a1] = Γ(A_0), where A_0 lies below the true facts and below every
    Γ result, and [s] counts the skolem heads that Γ application
    suppressed. A_0 is never compared with a later iterate, so it need
    not be [base]: a stratum's relaxation is Γ of the lower strata with
    the stratum's own predicates empty. Each further Γ is one semi-naive
    least-model run over a copy of [base], negation and aggregates read
    from the previous iterate; [alternations] counts only those. [base]
    and [a1] are not mutated, and [true_facts] is a fresh database.
    {!compute} is [alternate] from Γ(A_0); {!Engine.materialize} runs
    it on one stratum, lower strata in [base], from the stratum's
    relaxation.

    An aggregate inside a component can make the sequence return to
    an earlier iterate with a period of 3 or more, so that it never
    settles. That repeat is detected (Brent's method: one saved
    iterate, replaced at A_1, A_2, A_4, A_8, ...) and raises
    {!Eval.Diverged}, as does a Γ past [max_rounds]. A sequence that
    settles, however late, is never stopped. *)

val is_total : model -> bool
(** [true] iff nothing is undefined — e.g. always for stratified
    programs. *)
