(** Query-capability descriptions (Section 2).

    "S also transmits a description of its query capabilities to M ...
    The query capability descriptions minimally specify means for
    browsing through all instances of exported classes and relations,
    and optionally declare further capabilities as binding patterns or
    query templates which allow the mediator to optimize query
    evaluation by pushing down subqueries to the wrapper." *)

type binding = Bound | Free

type t =
  | Scan_class of string
      (** browse all instances of a class (the minimal capability) *)
  | Scan_relation of string
  | Select_class of { cls : string; on : string list }
      (** selections on the listed methods can be pushed down *)
  | Bind_relation of { rel : string; pattern : binding list }
      (** the relation answers accesses matching the binding pattern
          (a [Bound] position must be given by the mediator) *)
  | Template of { name : string; params : string list; body : string }
      (** a named parameterised query in FL surface syntax; occurrences
          of [$param] are replaced by the actual ground terms *)

val scan_class : string -> t
val scan_relation : string -> t
val select_class : cls:string -> on:string list -> t
val bind_relation : rel:string -> pattern:binding list -> t
val template : name:string -> params:string list -> body:string -> t

(** {1 Checks the planner performs} *)

val can_scan_class : t list -> string -> bool
val can_scan_relation : t list -> string -> bool

val pushable_selections : t list -> cls:string -> string list
(** Methods of the class on which selections may be pushed down. *)

val admits_pattern : t list -> rel:string -> bound:bool list -> bool
(** Is there a capability matching an access where position [i] is
    bound iff [List.nth bound i]? A declared pattern admits an access
    when every [Bound] position of the declaration is bound in the
    access. [Scan_relation] admits everything. *)

val over_advertise :
  classes:(string * string list) list ->
  relations:(string * int) list ->
  t list
(** The most permissive capability set a schema could honestly declare:
    scan every class and relation, push selections on every method,
    admit every binding pattern. What a {e stale} capability answer
    looks like to the mediator — the source may well refuse accesses
    this set admits ({!Source.fetch_instances} checks the real
    capabilities), which is exactly the failure mode fault injection
    wants to provoke. *)

val find_template : t list -> string -> t option

val placeholders : string -> string list
(** The parameters a template body interpolates: each [$] followed by a
    maximal run of letters, digits and underscores; sorted, without
    duplicates. *)

val instantiate : string -> (string -> string option) -> string
(** [instantiate body arg] replaces each whole placeholder [$p] of
    [body] by [arg p] when that is [Some], in one pass over [body]:
    spliced text is never scanned again, so [$loc] leaves [$loc2]
    alone and the result does not depend on the order of the
    arguments. *)

val pp : Format.formatter -> t -> unit
