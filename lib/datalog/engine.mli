(** Engine facade: stratified materialization with a choice of strategy,
    the well-founded semantics for unstratified programs (certified from
    their stratified relaxation), and conjunctive querying of
    materialized databases.

    This is the single deductive engine the mediator architecture calls
    for ("the mediator needs only a single GCM engine", Section 2). It
    evaluates exactly the program it is handed (less any rules the
    [prune] hook proves dead), with every plan in the greedy literal
    order of {!Logic.Rule.order}. Queries ({!query}) run on the same compiled
    kernel. *)

type strategy = Naive | Seminaive

type durability = Store.durability = {
  fs : Codec.fs;
  wal_max_bytes : int;
}
(** The durable store's configuration, re-exported from {!Store} with
    its fields; [Store.durability ~dir ()] builds one over a
    directory. *)

val checkpoint_file : string
(** {!Store.checkpoint_file} *)

val wal_file : string
(** {!Store.wal_file} *)

type config = {
  strategy : strategy;
  max_term_depth : int;
      (** skolem guard: derived facts containing terms nested deeper
          than this are suppressed (domain-map assertions create
          placeholder objects [f_{C,r,D}(x)]; the bound keeps chained
          assertions terminating) *)
  max_rounds : int;
  compiled_plans : bool;
      (** evaluate rule bodies through cached compiled plans
          ({!Plan}; the default) instead of the interpreted
          {!Eval.solve_body} path. Same models, same join order — the
          interpreted path is kept as the differential-testing oracle
          and is what [strategy = Naive] always uses. {!query} is
          compiled whatever this says. *)
  prune : (Logic.Rule.t list -> Database.t -> Logic.Rule.t list) option;
      (** dead-rule pruning hook, run by {!materialize} after program
          facts are loaded and before evaluation. The hook receives the
          rule-only program and the base database and must return a
          {e sublist} of rules whose omission does not change the model
          — i.e. only drop rules proved to derive nothing
          ({!Analysis.Absint.prune} is such a hook; the engine cannot
          depend on the analysis library, so the wiring is inverted).
          Pruned-rule counts land in [report.rules_pruned]. *)
  durability : durability option;
      (** when set, {!materialize} writes a checkpoint of the stratified
          result ({!Store.checkpoint}), {!maintain} commits each batch
          write-ahead ({!Store.commit}), and {!recover} rebuilds the
          materialization from checkpoint + log suffix
          ({!Store.recover}). [None] (the default) falls back to the
          [KIND_DURABLE_DIR] environment variable ({!Store.resolve});
          unset means durability off. An unstratified program is never
          checkpointed: no {!Maintain} handle can adopt it, so there
          is no log to replay through. *)
}

val default_config : config

exception Undefined_atoms of int
(** Raised by {!materialize} when the well-founded model of an
    unstratified program leaves atoms undefined, with the number of
    them in the whole model: a materialized database cannot represent
    three-valued results — use {!Wellfounded.compute} directly for
    those programs. *)

type report = {
  stratified : bool;
      (** [false] for an unstratified program, evaluated under the
          well-founded semantics *)
  strata : int;
      (** strata evaluated; for an unstratified program, the strata of
          its relaxation *)
  rounds : int;
      (** semi-naive rounds over all strata; for an unstratified
          program, the relaxation's (its Γ applications count in
          [alternations]), or the Γ applications again when the whole
          program alternates *)
  alternations : int;
      (** Γ applications of the alternating fixpoint: 0 when the
          program is stratified or every stratum of its relaxation
          certifies itself, else those of the strata whose certificate
          failed (every one of them when an aggregate sits inside a
          component and the whole program alternates) *)
  derived : int;
  skolems_suppressed : int;
  joins : int;
  tuples_scanned : int;
  index_hits : int;
      (** join steps answered by probing a signature index rather than
          scanning the extent *)
  plan_cache_hits : int;
      (** compiled-plan lookups answered from the global plan cache
          (0 when [config.compiled_plans] is false) *)
  strata_skipped : int;
      (** maintenance only: strata left untouched because no dependency
          changed extent (0 for a full materialization) *)
  delta_facts : int;
      (** maintenance only: net facts added + removed by the delta *)
  rules_pruned : int;
      (** rules dropped by the [config.prune] hook before evaluation
          (0 when no hook is set and on the maintenance path) *)
  checkpoint_ms : float;
      (** wall time spent writing a checkpoint this call (0.0 when
          durability is off or nothing was checkpointed) *)
  recovery_ms : float;
      (** {!recover} only: wall time for snapshot read + WAL replay *)
  wal_bytes : int;
      (** size of the write-ahead log after this call (0 when
          durability is off) *)
}

val empty_report : report

val materialize :
  ?config:config -> ?report:report ref -> Program.t -> Database.t -> Database.t
(** [materialize p edb] computes the least (or well-founded) model of
    [p] over [edb] and returns it as a fresh database containing EDB and
    IDB facts. [edb] is not mutated. Ground facts contained in [p]
    itself are added first.

    A stratified program runs stratum by stratum. An unstratified one
    runs its stratified relaxation: every negation of a predicate in
    the head's component (strongly connected component of the
    predicate graph) dropped, one semi-naive pass per stratum. After a
    stratum that dropped literals, a compiled query per dropped
    [not a] looks for a rule instance that fires with [a] true; when
    none does, the stratum's result is its total well-founded model
    (DESIGN.md §9). When one does, {!Wellfounded.alternate} continues
    the alternating fixpoint from that result over the stratum's own
    rules, lower strata fixed. A program with an aggregate inside a
    component runs {!Wellfounded.compute} whole. Either way the result
    equals {!Wellfounded.compute}'s true facts, or [Undefined_atoms] is
    raised. A fixpoint past [config.max_rounds] or an alternation that
    cannot settle raises {!Eval.Diverged}. A well-founded result is settled ({!Database.settle}) and
    promoted out of the minor heap: the indexes the evaluation built
    are caught up, so the first queries over it neither replay their
    insertion logs nor copy the model's young rows. *)

val maintain :
  ?config:config ->
  ?report:report ref ->
  Program.t ->
  Database.t ->
  Maintain.delta ->
  (Maintain.report, string) result
(** Incremental view maintenance: absorb a batch of EDB insertions and
    deletions into an already-materialized stratified database,
    re-evaluating only the strata whose dependencies changed (see
    {!Maintain}; stratified negation and aggregation included — changes
    to a negated input propagate by polarity, and a stratum whose
    aggregated input changed is rebuilt from the maintained strata
    below it). The database is mutated. [Error] if the program is
    unstratified or a delta fact is non-ground. For repeated deltas
    keep a {!Maintain.t} handle instead — this entry point re-adopts
    the database on every call.

    With durability configured, the batch goes through {!Store.commit}:
    appended to the WAL and fsync'd {e before} it is applied, and the
    log rotated into a fresh checkpoint once it exceeds
    [durability.wal_max_bytes]. [Error], with the database untouched,
    when the log on disk is foreign or corrupt. *)

val recover :
  ?config:config ->
  ?report:report ref ->
  Program.t ->
  (Database.t option, string) result
(** Rebuild the materialization of [p] from the configured durability
    directory through {!Store.recover}: read the checkpoint, then replay
    the WAL suffix through incremental maintenance (cost proportional
    to the log, not the database). [Ok None] when no checkpoint exists
    (cold-start — call {!materialize}). [Error] if no durability is
    configured, a file is unreadable mid-stream, or [p] no longer
    stratifies over the snapshot. The report's
    [recovery_ms] / [wal_bytes] fields are filled; [strata] / [rounds] /
    [derived] echo the checkpoint's saved counters. *)

val query :
  ?stats:Eval.stats -> Database.t -> Logic.Literal.t list -> Logic.Subst.t list
(** Solve a conjunctive query (with negation-as-absence, comparisons and
    aggregates) against a materialized database: one substitution per
    answer, binding every variable the body binds.

    The body runs on the compiled join kernel: {!Plan.compile} turns it,
    once per call, into a rule whose head carries those variables, and
    each head row becomes a substitution. The plan never enters the
    plan cache, and a query never grows the term pool: a positive
    literal with a ground argument the pool does not know matches no
    stored row, so the query answers [[]] before compiling. An
    aggregate still evaluates its inner body on the interpreter
    ({!Eval.eval_agg}).

    Raises [Invalid_argument] with {!Logic.Rule.check_safety}'s message
    when the body is not range-restricted. The check runs before
    anything is evaluated, so it does not depend on the data. *)

val answers : Database.t -> Logic.Atom.t -> Tuple.t list
(** Instances of an atom pattern in the database, as bound argument
    tuples. *)

val holds : Database.t -> Logic.Atom.t -> bool
(** [holds db a] — [a] may contain variables; true iff some instance is
    in [db]. *)
