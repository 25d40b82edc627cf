(** The durable store: a {!Snapshot} checkpoint plus a {!Wal} of the
    maintenance batches applied since, both under one {!Codec.fs}.

    This is the one implementation of the durability protocol; the
    engine ({!Engine.materialize}/[maintain]/[recover]) and the
    mediator call it. Every operation keeps the on-disk pair in a state
    from which {!recover} lands on exactly the pre- or the post-batch
    materialization (DESIGN.md §14):

    - {!checkpoint}: next generation → snapshot → log reset;
    - {!commit}: log append + fsync {e before} the batch is applied,
      and past [wal_max_bytes] a rotation into a fresh checkpoint;
    - {!recover}: checkpoint, then the log suffix replayed as one
      coalesced batch — only when the log's generation matches the
      checkpoint's. *)

type durability = {
  fs : Codec.fs;  (** where checkpoint and WAL live (see {!Codec.real_fs}) *)
  wal_max_bytes : int;
      (** rotation threshold: after a committed batch pushes the WAL
          past this size, the maintained state is checkpointed and the
          log compacted to a bare header *)
}

val durability : ?wal_max_bytes:int -> dir:string -> unit -> durability
(** A store rooted at directory [dir] (created on demand).
    [wal_max_bytes] defaults to 1_000_000. *)

val resolve : durability option -> durability option
(** [Some d] as given; [None] falls back to the [KIND_DURABLE_DIR]
    environment variable (read once per process) — unset or empty
    means durability off. *)

val checkpoint_file : string
(** ["checkpoint.kind"] — path of the snapshot, relative to [fs]. *)

val wal_file : string
(** ["wal.kind"] — path of the write-ahead log, relative to [fs]. *)

val generation : Snapshot.t -> int
(** The generation a checkpoint was written under (0 when unstamped). *)

val checkpoint :
  durability ->
  ?counters:(string * float) list ->
  db:Database.t ->
  edb:Database.t ->
  unit ->
  int
(** Checkpoint the materialization [db] over base facts [edb] under the
    next generation, then reset the log to that generation (a fresh
    checkpoint subsumes every logged batch). [counters] are saved
    alongside the generation. Returns the snapshot size in bytes. *)

type commit = {
  report : Maintain.report;
  rotated : bool;  (** the batch pushed the log into a checkpoint *)
  checkpoint_ms : float;  (** wall time of that rotation (0.0 without) *)
  wal_bytes : int;  (** log size after the commit (0 when not durable) *)
}

val commit :
  durability option -> Maintain.t -> Maintain.delta -> (commit, string) result
(** Absorb one batch through {!Maintain.apply}, write-ahead when a store
    is given: the batch is appended to the log and fsync'd before it is
    applied, so a crash recovers to the pre-batch state (append torn)
    or the post-batch state (append complete, replayed). [Error], with
    nothing logged or applied, when {!Maintain.apply} refuses the batch
    (a non-ground fact) or the log on disk is foreign or corrupt. *)

type recovered = {
  db : Database.t;
      (** the checkpointed materialization, with the log suffix replayed
          into it *)
  edb : Database.t;  (** the checkpoint's base facts *)
  counters : (string * float) list;  (** saved by {!checkpoint} *)
  replayed : (Maintain.t * Maintain.report) option;
      (** the handle [adopt] built to replay the suffix, with its
          report; [None] when the net suffix was empty (nothing was
          adopted) *)
}

val recover :
  durability ->
  adopt:(edb:Database.t -> Database.t -> (Maintain.t, string) result) ->
  (recovered option, string) result
(** Read the checkpoint and replay the log suffix. A torn tail is
    dropped: by the write-ahead ordering it belongs to a batch that was
    never applied. On a generation mismatch (a crash between a
    checkpoint write and its log reset) the entries belong to the
    previous checkpoint: they are discarded and the log is re-stamped,
    so later appends land in a log recovery trusts. The suffix is
    coalesced ({!Wal.coalesce}) and, when non-empty, absorbed by one
    {!Maintain.apply} on the handle [adopt ~edb db] returns. [Ok None]
    when no checkpoint exists. *)
