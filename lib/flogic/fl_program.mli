(** F-logic programs: molecules + signature, compiled and evaluated on
    the Datalog engine with the GCM axioms included. This is the "single
    GCM engine" of the paper's architecture (Section 2). *)

type t = {
  signature : Signature.t;
  rules : Molecule.rule list;
  inheritance : bool;
      (** include the nonmonotonic default-inheritance axioms *)
}

val make : ?inheritance:bool -> ?signature:Signature.t -> Molecule.rule list -> t

val add_rules : t -> Molecule.rule list -> t
val add_facts : t -> Molecule.t list -> t
val merge : t -> t -> t

val compile : t -> (Datalog.Program.t, string) result
(** Translate molecules (plus axioms) into a safety-checked Datalog
    program. [Error] carries a compile or safety diagnostic. *)

val run :
  ?config:Datalog.Engine.config ->
  ?report:Datalog.Engine.report ref ->
  ?edb:Datalog.Database.t ->
  t ->
  Datalog.Database.t
(** Compile and materialize. Raises [Invalid_argument] on compile
    errors — use {!compile} first for recoverable handling. *)

val run_wellfounded :
  ?edb:Datalog.Database.t -> t -> Datalog.Wellfounded.model
(** Compile and compute the three-valued well-founded model directly —
    for programs where {!run} raises [Undefined_atoms] (negation
    genuinely entangled with recursion) and the undefined layer itself
    is of interest. *)

val query :
  t -> Datalog.Database.t -> Molecule.lit list -> Logic.Subst.t list
(** Solve an FL conjunctive query against a materialized database
    ({!Datalog.Engine.query}). Raises [Invalid_argument] with
    {!Logic.Rule.check_safety}'s message when the query is not
    range-restricted, whatever the database holds. *)

val holds : t -> Datalog.Database.t -> Molecule.t -> bool
(** Some instance of the molecule is in the database. Raises
    [Invalid_argument] as {!query} does. *)

val instances_of : Datalog.Database.t -> string -> Logic.Term.t list
(** Objects [X] with [isa(X, c)] in the database. *)

val subclasses_of : Datalog.Database.t -> string -> Logic.Term.t list
