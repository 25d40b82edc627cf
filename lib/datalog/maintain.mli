(** Incremental view maintenance for stratified materializations.

    A {!t} wraps an already-materialized stratified database together
    with its program and base (extensional) facts, and keeps the
    materialization consistent under batches of EDB insertions and
    deletions ({!apply}) and under monotone program growth
    ({!extend_rules}) — without recomputing unchanged strata.

    Per stratum, the maintenance walk picks the cheapest sound path:

    - {b skip} — no body predicate of the stratum changed extent;
    - {b propagate} — positive or negated dependencies changed, handled
      by polarity. Deletions run delete-and-rederive (DRed:
      over-delete the consequences of the removed facts, then re-derive
      survivors that still have an alternative proof); insertions
      re-run the semi-naive [focus] joins seeded with the accumulated
      delta. A predicate read under negation is final when its stratum
      is reached, so a fact it {e gains} can only block rule instances —
      each [not p(u)] rule rewritten as [p(u), body] with every negation
      dropped, focused on the added facts, seeds DRed's over-deletion —
      and a fact it {e loses} can only unblock them: the same rewrite
      with the full body, focused on the removed facts and negations
      read against the current model, seeds the insertion pass;
    - {b recompute} — a predicate read inside an aggregate changed: the
      stratum is rebuilt from the maintained strata below it, and the
      diff against its old extent continues upward as the delta.

    This is the engine half of the mediator's registration/anchoring
    lifecycle (paper Fig. 3): a source pushing new observations, or a
    newly registered source contributing facts, anchor rules and schema
    rules, becomes a delta absorbed in time proportional to its
    consequences rather than to the whole mediated object base. *)

type delta = { additions : Logic.Atom.t list; deletions : Logic.Atom.t list }

val delta :
  ?additions:Logic.Atom.t list -> ?deletions:Logic.Atom.t list -> unit -> delta

val delta_is_empty : delta -> bool

type action = Skipped | Propagated | Recomputed

type stratum_report = {
  stratum : int;   (** stratum index *)
  action : action;
  delta_in : int;  (** accumulated delta size when the stratum was reached *)
  added : int;     (** facts of this stratum's predicates added *)
  removed : int;
  rounds : int;
}

type report = {
  added : int;     (** net facts added (EDB delta + derived) *)
  removed : int;
  rounds : int;
  strata : int;
  skipped : int;
  recomputed : int;
  skolems_suppressed : int;
  joins : int;
  tuples_scanned : int;
  index_hits : int;       (** join steps answered via an index probe *)
  plan_cache_hits : int;  (** compiled-plan lookups answered from cache *)
  touched : string list;
      (** predicates whose extent changed — the precise invalidation
          set for result caches layered on top *)
  per_stratum : stratum_report list;
}

type t

val init :
  ?max_term_depth:int ->
  ?max_rounds:int ->
  ?compiled:bool ->
  ?prune:(Logic.Rule.t list -> Database.t -> Logic.Rule.t list) ->
  Program.t ->
  Database.t ->
  (t, string) result
(** Materialize [p] over a copy of the EDB and return the maintenance
    handle. [Error] if the program is not stratified (maintenance has
    no well-founded path — use {!Engine.materialize} for those).

    [prune] is the same dead-rule hook as {!Engine.config.prune} and
    must only drop rules that derive nothing over the given base. It
    speeds up the {e initial} materialization only: the handle keeps
    the full rule set, because a delta may revive a pruned rule — and
    then every new instantiation involves a delta fact, which the
    focus joins of {!apply} cover (over a positive or a negated
    literal), so maintained results still equal a full rebuild. *)

val of_materialized :
  ?max_term_depth:int ->
  ?max_rounds:int ->
  ?compiled:bool ->
  ?edb:Database.t ->
  ?prewarm:bool ->
  Program.t ->
  Database.t ->
  (t, string) result
(** Adopt an existing materialization of [p] (as produced by
    {!Engine.materialize}) without recomputing it; the database is
    maintained in place. With [?edb] (a checkpoint's base database,
    {!Snapshot}) the base facts are exactly those, copied. Without it
    they are reconstructed as the extents of non-IDB predicates plus
    the ground facts of [p] itself — external EDB facts for predicates
    that also head rules are not representable that way; use {!init} or
    pass [?edb] when you have them.

    [?prewarm] (default [true]) eagerly builds every join index the
    maintenance passes could need. Pass [false] when the handle will
    absorb one delta and be dropped — recovery replay — so only the
    indexes that delta actually probes get built, lazily. *)

val apply : t -> delta -> (report, string) result
(** Absorb a batch of base-fact changes. Deletions are applied before
    insertions. Delta predicates may also be defined by rules (the
    mediator asserts source data on the same declared predicates its
    anchor rules write): an addition asserts a base fact, and a
    deletion retracts a base assertion — the fact itself survives when
    the rules still prove it, so the result always equals a full
    materialization over the updated base. [Error] (leaving the handle
    untouched) if a delta fact is non-ground. *)

val extend_rules : t -> ?delta:delta -> Logic.Rule.t list -> (report, string) result
(** Grow the program by [new_rules] (plus an optional EDB delta in the
    same pass), re-stratify, and absorb the consequences: strata
    containing new rules seed them with one full evaluation and
    propagate semi-naively from there. [Error] (handle untouched) if a
    new rule is unsafe or the grown program loses stratification. *)

val db : t -> Database.t
(** The maintained materialization (shared, mutated by {!apply}). *)

val edb : t -> Database.t
(** The current base facts (shared; mutate only through {!apply}). *)

val rules : t -> Logic.Rule.t list
