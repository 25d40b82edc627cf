(** First-order terms: the data values of the whole mediator stack.

    Terms are shared by the Datalog engine, the F-logic layer, the GCM
    declarations and the domain-map machinery. Variables are identified
    by name; constants carry a small scalar universe sufficient for the
    mediation scenarios of the paper (symbols, strings, numbers,
    booleans). Function application terms ({!App}) are used for skolem
    placeholder objects such as [f_{C,r,D}(X)] created when a domain-map
    edge is executed as an assertion (Section 4 of the paper). *)

type const =
  | Sym of string    (** interned symbol, e.g. [neuron], [has_a] *)
  | Str of string    (** quoted string data value *)
  | Int of int
  | Float of float
  | Bool of bool

type t =
  | Var of string           (** logic variable, conventionally capitalised *)
  | Const of const
  | App of string * t list  (** function term [f(t1,...,tn)], n >= 1 *)

(** {1 Constructors} *)

val var : string -> t
val sym : string -> t
val str : string -> t
val int : int -> t
val float : float -> t
val bool : bool -> t
val app : string -> t list -> t
(** [app f args] builds a function term. Raises [Invalid_argument] when
    [args] is empty: nullary applications must be {!sym} constants so
    that term equality stays canonical. *)

(** {1 Inspection} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val is_ground : t -> bool
(** [is_ground t] is [true] iff [t] contains no variable. *)

val vars : t -> string list
(** Variables occurring in the term, each listed once, in first-occurrence
    order. *)

val depth : t -> int
(** Nesting depth: constants and variables have depth 1, [f(t1..tn)] has
    depth [1 + max (depth ti)]. Used to bound skolem creation. *)

val size : t -> int
(** Number of nodes in the term tree. *)

val occurs : string -> t -> bool
(** [occurs x t] is [true] iff variable [x] occurs in [t]. *)

(** {1 Conversions} *)

val as_const : t -> const option
val as_sym : t -> string option
val as_int : t -> int option
val as_string : t -> string option
(** [as_string t] extracts the payload of a [Sym] or [Str] constant. *)

val compare_const : const -> const -> int
val equal_const : const -> const -> bool

val compare_list : t list -> t list -> int
(** Lexicographic comparison; shorter lists sort first. *)

(** {1 Interning}

    Every ground term can be interned into a process-global pool that
    assigns it a stable small integer id. Two ground terms are equal iff
    their ids are equal, so the datalog kernel compares and hashes rows
    by cached int keys instead of structural walks. See {!Intern} for
    pool introspection. *)

val id : t -> int
(** [id t] interns the ground term [t] (a memoized hash-consing lookup)
    and returns its id. Raises [Invalid_argument] on non-ground terms. *)

val id_opt : t -> int option
(** [Some (id t)] when [t] is ground, [None] otherwise. *)

val find_id : t -> int option
(** The id of an already-interned term, without interning: [None] means
    the term has never been interned (so it cannot occur in any
    interned row). Negative membership probes use this to avoid growing
    the pool. *)

val of_id : int -> t
(** The term interned under an id. Raises [Invalid_argument] on ids the
    pool never issued. *)

val pool_size : unit -> int
(** Number of distinct ground terms interned so far. *)

val pool_longest_bucket : unit -> int
(** The most interned terms that share one hash bucket: an intern
    lookup compares against up to this many terms. *)

(** {1 Pretty-printing} *)

val pp_const : Format.formatter -> const -> unit
(** Floats print exactly — the shorter of [%.15g] and [%.17g] that reads
    back to the same value — so a printed term parses to itself. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
