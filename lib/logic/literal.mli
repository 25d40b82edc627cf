(** Body literals of GCM/F-logic rules.

    Besides positive and negated atoms, rule bodies may contain
    comparison tests, arithmetic evaluation, and grouped aggregation in
    the style of the paper's Example 3
    ([N = count{VA [VB]; R(VA,VB)}, N =/= 1]). *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type arith_op = Add | Sub | Mul | Div

type expr =
  | Leaf of Term.t
  | Bin of arith_op * expr * expr

type agg_fun = Count | Sum | Min | Max | Avg

type agg = {
  func : agg_fun;
  target : Term.t;       (** term aggregated over, e.g. [VA] *)
  group_by : Term.t list; (** grouping terms, e.g. [[VB]] *)
  result : Term.t;       (** variable receiving the aggregate value *)
  body : Atom.t list;    (** inner positive conjunction *)
}

type t =
  | Pos of Atom.t
  | Neg of Atom.t
  | Cmp of cmp * Term.t * Term.t
  | Assign of Term.t * expr  (** [X is e]; [e] must be ground at eval time *)
  | Agg of agg

(** {1 Structural builtins}

    Atoms whose predicate starts with ["builtin:"] are evaluated
    structurally on ground terms instead of being looked up in a
    relation; they bind nothing and require their variables bound.
    The engine supports:
    - [builtin:is_app(T)] — [T] is a function term;
    - [builtin:is_const(T)] — [T] is a constant;
    - [builtin:functor_prefix(T, P)] — [T = f(...)] and the string/
      symbol [P] is a prefix of [f];
    - [builtin:not_functor_prefix(T, P)] — negation of the above
      (constants trivially satisfy it). *)

val builtin_prefix : string
val is_builtin : string -> bool

(** {1 Constructors} *)

val pos : string -> Term.t list -> t
val neg : string -> Term.t list -> t
val cmp : cmp -> Term.t -> Term.t -> t
val assign : Term.t -> expr -> t
val count :
  target:Term.t -> group_by:Term.t list -> result:Term.t -> Atom.t list -> t
val agg :
  agg_fun ->
  target:Term.t ->
  group_by:Term.t list ->
  result:Term.t ->
  Atom.t list ->
  t

(** {1 Inspection} *)

val vars : t -> string list
(** All variables of the literal (for aggregates: group-by, result and
    inner-body variables; the target/local variables are included too —
    use {!binds} / {!needs} for safety analysis). *)

val binds : t -> string list
(** Variables the literal can bind when evaluated: the variables of a
    positive atom, the left-hand side of [Assign], the [result] of an
    aggregate, and an [Eq] comparison's variable sides. *)

val needs : t -> string list
(** Variables the literal requires to be bound before evaluation:
    variables of negated atoms, of non-[Eq] comparisons, of [Assign]
    right-hand sides, and aggregate group-by variables that also occur
    outside the aggregate. *)

module Vars : Set.S with type elt = string and type t = Set.Make(String).t
(** Sets of variable names, such as the variables a body has bound so
    far. *)

val evaluable : bound:Vars.t -> t -> bool
(** Whether the literal can run once the variables in [bound] are
    bound: all its {!needs} are, or, for an [Eq] comparison, all the
    variables of either side (it unifies into the other). The one
    evaluability test of every evaluator, of {!Rule.next} and of
    {!Rule.safety_errors}. *)

val bind : bound:Vars.t -> t -> Vars.t
(** The variables bound once the literal has run: [bound] plus its
    {!binds}. *)

val apply : Subst.t -> t -> t
val apply_expr : Subst.t -> expr -> expr
val rename_apart : suffix:string -> t -> t
val predicates : t -> (string * bool) list
(** Predicates referenced, paired with [true] when the reference is
    through negation or aggregation (a "nonmonotonic" edge for
    stratification purposes). *)

val eval_cmp : cmp -> Term.t -> Term.t -> bool option
(** Evaluate a comparison on ground terms; [None] if either side is
    non-ground or the comparison is heterogeneous in a way we reject
    ([Lt] between an int and a symbol, etc. — [Eq]/[Ne] always work). *)

val eval_expr : expr -> Term.t option
(** Evaluate an arithmetic expression over ground numeric leaves. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_cmp : Format.formatter -> cmp -> unit
val pp_expr : Format.formatter -> expr -> unit
