(** Rules [head :- body] and facts (rules with empty bodies).

    Rules are the extension mechanism of the GCM (requirement (RULES) of
    Section 3). Integrity constraints are ordinary rules whose head
    predicate is the distinguished inconsistency class — see
    {!Flogic.Ic}. *)

type t = { head : Atom.t; body : Literal.t list }

val make : Atom.t -> Literal.t list -> t
val fact : Atom.t -> t
val is_fact : t -> bool

val head_pred : t -> string

val vars : t -> string list

val apply : Subst.t -> t -> t
val rename_apart : suffix:string -> t -> t

type safety_error =
  | Agg_unbound of string
      (** aggregate target/group-by variable not bound by the inner
          conjunction *)
  | Unbound_var of string
      (** required variable (head, negation, comparison input) never
          range-restricted *)
  | Stuck_literal of Literal.t
      (** a literal whose needs can never all be bound (and whose unmet
          variables are not already reported as [Unbound_var]) *)

val safety_errors : t -> safety_error list
(** All range-restriction violations of the rule, for diagnostic
    tooling; [[]] iff {!check_safety} succeeds. *)

val check_safety : t -> (unit, string) result
(** Range restriction: every variable of the head, of each negated
    literal, of comparison/assignment inputs, and every aggregate
    group-by variable must be bound by a positive body literal, an
    equality, an assignment target, or an aggregate result, considering
    literals in any order that admits such a binding. Aggregate inner
    bodies are checked separately (target and group-by variables must be
    bound by the inner conjunction). [Error] carries the first entry of
    {!safety_errors}, rendered. *)

(** {1 Literal order}

    The one literal order of every evaluator: the interpreter
    ([Datalog.Eval]), the compiled plans ([Datalog.Plan]), tabled
    resolution ([Datalog.Topdown]) and the cost model
    ([Analysis.Card]). *)

val next :
  ?focus:int ->
  bound:Literal.Vars.t ->
  used:bool array ->
  Literal.t array ->
  int option
(** The greedy step: the index of the body literal to run next, given
    the variables [bound] so far and the literals already [used].
    Among the unused literals that are {!Literal.evaluable}, it picks
    the highest score: the [focus] literal (the one reading a delta)
    1000 + b, another positive atom 100 + b, where b counts its bound
    variables; a negation, comparison or assignment 500; an aggregate
    10. The first index wins a tie. [None] when no unused literal is
    evaluable. *)

val order : ?focus:int -> t -> int list option
(** The whole body order: {!next} from no bound variables, each chosen
    literal binding its {!Literal.binds}. [None] when the body is not
    range-restricted (some literal never becomes evaluable). *)

val body_predicates : t -> (string * bool) list
(** Predicates of the body with their nonmonotonic flag, for
    stratification. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
