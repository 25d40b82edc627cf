(** Tabled top-down (goal-directed) evaluation — the strategy of the
    XSB engine underneath FLORA, which the paper used to run its
    prototype. Where {!Engine.materialize} computes the whole model,
    [solve] explores only the calls reachable from one query, memoising
    each call in a table; on selective queries over large extents
    (e.g. [tc(a, Y)] on a big graph) this is asymptotically cheaper.

    Supported fragment: stratified programs without aggregate literals
    and without function symbols in rule heads (use the bottom-up
    engine for those). Negative literals are solved by completing the
    called table first, which stratification makes safe. A rule body
    runs in the engine's greedy order ({!Logic.Rule.next}), stepped
    from the variables the call binds. *)

exception Unsupported of string

type stats = {
  mutable calls : int;      (** distinct tabled calls *)
  mutable answers : int;    (** answers across all tables *)
  mutable resolutions : int;  (** rule-resolution steps *)
}

val new_stats : unit -> stats

val solve :
  ?stats:stats ->
  ?max_rounds:int ->
  Program.t ->
  Database.t ->
  Logic.Atom.t ->
  Tuple.t list
(** [solve p edb goal] — all ground instances of [goal] entailed by the
    program over the EDB, sorted. Raises {!Unsupported} for aggregate
    rules, head function symbols, or unstratified negation;
    {!Eval.Diverged} if [max_rounds] is exceeded. *)

val solve_many :
  ?stats:stats ->
  ?max_rounds:int ->
  Program.t ->
  Database.t ->
  Logic.Atom.t list ->
  Tuple.t list list
(** Solve several goals against one shared table space. *)
