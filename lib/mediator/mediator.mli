(** The model-based mediator M (Figure 2).

    Holds the domain map DM(M), the semantic index, the registered
    wrapped sources with their conceptual models CM(S), and the
    integrated view definitions; materializes the mediated object base
    on the single GCM engine and answers FL queries over it.

    Ablation switches in {!config} let the benchmarks turn off the
    architecture's individual ingredients (semantic index, selection
    pushdown, lub root selection) to quantify what each contributes —
    see {!Section5} and {!Baseline}. *)

type lint_policy =
  | Lint_off     (** no static checks at registration *)
  | Lint_warn    (** diagnostics accumulate in {!translation_warnings} *)
  | Lint_reject  (** error-severity diagnostics fail the registration *)

type config = {
  dl_mode : Dl.Translate.mode;
      (** execute domain-map axioms as integrity constraints or as
          assertions (Section 4) *)
  use_semantic_index : bool;  (** step-2 source selection *)
  pushdown : bool;            (** step-1/3 selection pushdown *)
  use_lub : bool;             (** step-4 lub root vs whole-map root *)
  inheritance : bool;         (** nonmonotonic default inheritance *)
  lint : lint_policy;
      (** kindlint at {!register_source} time: schema conformance,
          anchor targets, template hygiene (default [Lint_warn]); at
          {!add_ivd} time: source provenance of the new views *)
  prune_dead : bool;
      (** drop rules the abstract interpreter ({!Analysis.Absint})
          proves can derive nothing before materializing — semantics
          preserving; counts surface in {!Datalog.Engine.report} /
          {!Datalog.Maintain.report} (default [false]) *)
  runtime : Runtime.policy;
      (** per-source retry-with-backoff and circuit-breaker policies
          applied to every query-time fetch (default
          {!Runtime.default_policy}) *)
  cost_budget : int option;
      (** row budget for incoming IVDs: when set, {!add_ivd} /
          {!add_ivd_text} run the cardinality analysis
          ({!Analysis.Card}, seeded with {!cardinality_seed}) over the
          federation program plus the candidate views, and a view whose
          estimated result exceeds the budget (or is provably
          unbounded) gets a reject-level [over-budget] error — which
          [Lint_reject] turns into a refused registration (default
          [None]: no cost policy) *)
  durability : Datalog.Store.durability option;
      (** when set, {!materialize} auto-checkpoints a freshly maintained
          materialization (engine snapshot + federation state, WAL
          compacted), {!update_source} commits each lifted batch to the
          WAL {e before} applying it and rotates the log past
          [wal_max_bytes] ({!Datalog.Store.commit}), and {!recover}
          rebuilds the live federation. [None] (the default) falls back
          to the [KIND_DURABLE_DIR] environment variable
          ({!Datalog.Store.resolve}); unset means durability off. An
          unstratified federation (the default assertion mode) is never
          checkpointed: no maintenance handle can adopt it. *)
}

val default_config : config

type t

val create : ?config:config -> Domain_map.Dmap.t -> t

(** {1 Registration} *)

val register_source : t -> Wrapper.Source.t -> (unit, string) result
(** Validates and namespaces the source's schema, merges its relation
    signature, and indexes its anchors. *)

val register_xml :
  t -> format:string -> ?capabilities:Wrapper.Capability.t list ->
  source_name:string -> Xmlkit.Xml.t -> (unit, string) result
(** Wire-format registration: run the CM plug-in for [format], then
    {!register_source} the result. *)

val extend_dmap : t -> Dl.Concept.axiom list -> (unit, string) result
(** Figure 3: a source refines the mediator's domain map. *)

val add_ivd : t -> Flogic.Molecule.rule list -> (unit, string) result
(** Install integrated-view rules (global-as-view). When a
    materialization is live, the new rules are absorbed incrementally
    ({!Datalog.Maintain.extend_rules}) instead of invalidating it.
    Unless the lint policy is [Lint_off], the rules' source provenance
    is checked ({!Analysis.Prov_lint}), a candidate view contained in
    the already-installed views (modulo the domain map,
    {!Analysis.Contain.redundant_view}) gets a [redundant-ivd]
    warning, and findings accumulate in {!translation_warnings}.

    [Error], with views, warnings and any live materialization
    unchanged, when the rules do not compile to range-restricted
    Datalog, or when [Lint_reject] meets an error-severity finding
    (a reference to an unregistered namespace, or an [over-budget]
    estimate under [cost_budget]). *)

val update_source :
  t ->
  source:string ->
  ?additions:Flogic.Molecule.t list ->
  ?deletions:Flogic.Molecule.t list ->
  unit ->
  (Datalog.Maintain.report option, string) result
(** A source pushes a data change (Figure 3's update arrow): ground
    declaration molecules in the {e source's} vocabulary, as accepted
    by {!Wrapper.Store.add_fact}. The wrapper store is updated, and a
    live materialization absorbs the lifted facts as a base delta —
    only the strata whose predicates are affected re-evaluate, and only
    the cached query results that read a touched predicate are dropped.
    [Ok None] when nothing was materialized yet (the store update will
    be picked up lazily); [Ok (Some report)] after an incremental pass.
    [Error] when the batch cannot be absorbed (a non-ground fact, or a
    foreign or corrupt WAL): the live materialization is then dropped,
    so the next query rebuilds from the updated wrapper stores. *)

val add_ivd_text : t -> string -> (unit, string) result
(** IVD in FL surface syntax, parsed with the mediator's accumulated
    signature, then installed by {!add_ivd}. The signature the text
    extends is kept only when the view is installed. *)

(** {1 Introspection} *)

val dmap : t -> Domain_map.Dmap.t
val index : t -> Domain_map.Index.t
val sources : t -> Wrapper.Source.t list
val find_source : t -> string -> Wrapper.Source.t option
val config : t -> config
val set_config : t -> config -> unit
val signature : t -> Flogic.Signature.t
val ivds : t -> Flogic.Molecule.rule list
(** Installed integrated-view rules, in installation order. *)

val program : t -> Flogic.Fl_program.t
(** The full federation program — domain-map rules, namespaced schema
    rules, anchor rules, lifted source facts and IVDs — exactly as
    {!materialize} would compile it, but without materializing. This is
    what [Lint.federation] analyzes. *)

val cardinality_seed : t -> string -> Analysis.Card.interval option
(** Trusted cardinality caps for the cost analysis: store tuple counts
    for qualified ['SRC.rel'] predicates, and domain-map cone sizes for
    the closure predicates ([tc_isa]/[dm_isa]: one pair per (concept,
    cone member); [has_a_star]: |concepts|²). What [Lint.federation]
    and the IVD budget check seed {!Analysis.Card.analyze} with. *)

val plugins : t -> Cm_plugins.Plugin.registry
val translation_warnings : t -> string list

(** {1 The mediated object base} *)

val materialize : t -> Datalog.Database.t
(** Pull every source's data, lift it through the anchors into the
    domain map, close it under the GCM axioms, the domain-map rules and
    the IVDs. Cached, and kept under incremental maintenance
    ({!Datalog.Maintain}): source registration, IVD installation and
    {!update_source} mutate the live materialization in place instead
    of invalidating it. Domain-map extension and configuration changes
    still trigger a full rebuild. *)

val invalidate : t -> unit

type cache_stats = {
  hits : int;          (** query answers served from the result cache *)
  misses : int;        (** queries evaluated against the database *)
  invalidated : int;   (** cached results dropped (precise + full) *)
  maintained : int;    (** deltas absorbed incrementally *)
  rebuilt : int;       (** full materializations *)
}

val cache_stats : t -> cache_stats

val last_maintenance : t -> Datalog.Maintain.report option
(** The report of the most recent incremental pass, if any — per-stratum
    skip/propagate/recompute actions and the touched-predicate set that
    drove result-cache invalidation. *)

val query : t -> Flogic.Molecule.lit list -> Logic.Subst.t list
(** Answer an FL query over the mediated base ({!Datalog.Engine.query}
    on the compiled query), from the result cache when it holds the
    query. Raises [Invalid_argument] with {!Logic.Rule.check_safety}'s
    message when the query is not range-restricted, whatever the base
    holds. *)

val query_text : t -> string -> (Logic.Subst.t list, string) result
(** Parse and run an FL query. [Error] on a parse error, on a query
    that is not range-restricted, and when the mediated base is
    unstratified and its well-founded model leaves atoms undefined
    ({!Datalog.Engine.Undefined_atoms}) or its evaluation runs out of
    rounds ({!Datalog.Eval.Diverged}). *)

val holds : t -> Flogic.Molecule.t -> bool
(** Some instance of the molecule is in the mediated base. Raises
    [Invalid_argument] as {!query} does. *)

val consistent : t -> bool
(** No integrity-constraint witnesses in the mediated object base. *)

val violations : t -> Flogic.Ic.witness list

(** {1 Concept-level services} *)

val select_sources : t -> concepts:string list -> string list
(** Step 2 of the paper's query plan: the sources whose anchored data
    can speak to the given concepts. With [use_semantic_index = false]
    every registered source is returned (broadcast). *)

val select_sources_for_pairs :
  t -> pairs:(string * string) list -> string list
(** Pair- and context-aware source selection
    ({!Domain_map.Index.sources_for_pairs}); broadcast when the index
    is off. *)

val lift_class : t -> source:string -> string -> string
(** The mediator-level (namespaced) name of a source class. *)

(** {1 Fault tolerance}

    Every query-time fetch from a registered source runs through a
    deterministic {!Wrapper.Fault} channel under the {!Runtime} retry
    and circuit-breaker policies. Sources the runtime gives up on are
    {e skipped}: {!materialize} proceeds without their data and tags
    the result with a {!completeness} report instead of failing the
    whole federation. *)

type completeness = {
  contributed : string list;  (** sources whose data is in the answer *)
  skipped : (string * string) list;  (** skipped source, reason *)
  suspect : string list;
      (** derived predicates some skipped source can reach (by
          {!Analysis.Prov_lint}'s provenance inference) — their extents
          may be missing answers *)
}

val set_fault_plan :
  t -> source:string -> Wrapper.Fault.plan -> (unit, string) result
(** Install a fault plan on a source's channel (replacing the channel)
    and invalidate the materialization so the next query replays the
    fetches under the plan. *)

val fault_channel : t -> string -> Wrapper.Fault.t option

val capabilities_of : t -> string -> Wrapper.Capability.t list
(** The capabilities the source's channel currently advertises — the
    over-approximated set once a [Stale_caps] fault has fired. *)

val fetch :
  t -> source:string -> (Wrapper.Source.t -> 'a) -> ('a, string) result
(** Run one operation against a source under the full fault-tolerance
    stack (channel, retries, breaker). *)

val completeness : t -> completeness
(** The completeness report of the current materialization (forces
    one). [skipped = []] means the answer is exact. *)

type report = { answers : Logic.Subst.t list; completeness : completeness }

val query_report : t -> Flogic.Molecule.lit list -> report
(** {!query}, with the completeness report the partial answer carries. *)

val revive_source : t -> string -> (unit, string) result
(** The Figure-3 re-registration path for a quarantined or dead source:
    open a pristine channel, close the breaker, and replay the source's
    current data into the live materialization as a registration
    delta. *)

val runtime : t -> Runtime.t
val health : t -> (string * Runtime.health) list
(** Per-source health counters, in registration order. *)

val degraded_queries : t -> int
(** Queries answered from a materialization with skipped sources. *)

(** {1 Durability}

    The engine half of the state (the mediated object base and its base
    facts) lives in a {!Datalog.Store}: a checkpoint plus a write-ahead
    log of maintenance batches; the federation half
    (per-source breaker status and health counters, fault-channel
    positions, the virtual clock, the degraded-query ledger) in a
    {!Durable} state file. All three are written through the durability
    {!Codec.fs}, so the crash-point harness ({!Wrapper.Crashpoint}) can
    kill a write mid-frame. See DESIGN.md §14. *)

val checkpoint : t -> (int, string) result
(** Write a full checkpoint — engine snapshot, federation state, WAL
    compacted — to the configured durability store. Forces a
    materialization. Returns the snapshot size in bytes.
    [Error] when no durability is configured or the federation is
    unstratified (its well-founded model has no maintenance handle). *)

val recover : t -> (bool, string) result
(** Rebuild the live federation from the durability store: read the
    checkpoint, adopt it under incremental maintenance (the program is
    recompiled from the {e re-registered} topology — register the same
    sources and IVDs first), replay the WAL suffix, and restore the
    federation runtime — breaker states and counters, fault channels
    resuming mid-plan ({!Wrapper.Fault.restore}), the virtual clock,
    the last completeness report and the degraded-query ledger. An open
    breaker stays open and resumes half-open probing when its cooldown
    lapses on the restored clock; recovery never revives. [Ok false]
    when no checkpoint exists (cold-start — call {!materialize}).
    Federation state naming a source that was not re-registered is
    dropped with a warning in {!translation_warnings}. *)
