(** Crash-point injection over a virtual filesystem.

    The durability stack ({!Datalog.Snapshot}, {!Datalog.Wal}) does all
    its I/O through a {!Codec.fs} record, so a "process crash" can be
    simulated without killing anything: this harness implements the
    record over in-memory files with a tick budget, and raises
    {!Crashed} out of the middle of a write sequence when the budget
    runs out. Because every durability code path is deterministic, one
    fault-free run measures the total tick cost, and then each budget
    in [0 .. total] enumerates a distinct kill point — mid-frame,
    between frames, before or after an fsync, mid-rotation.

    Tick costs: each {e byte} written costs one tick (so a crash can
    land inside a frame image, modelling a torn write); [flush],
    [rename] and [remove] cost one tick each. Reads are free — recovery
    itself is never killed.

    The two {!mode}s bracket what a real kernel may do with un-fsynced
    data: [Keep_torn] keeps everything handed to [write] (the page
    cache survived), [Drop_unsynced] discards all bytes not yet
    [flush]ed (the page cache was lost). Correct recovery must land on
    an allowed state under {e both}. *)

exception Crashed

type mode =
  | Keep_torn  (** un-flushed bytes survive the crash (possibly torn) *)
  | Drop_unsynced  (** only flushed bytes survive *)

type t

val create : unit -> t
(** A fresh empty virtual filesystem, unarmed: all operations succeed
    and cost ticks, nothing crashes. *)

val fs : t -> Codec.fs
(** The {!Codec.fs} view — hand this to {!Datalog.Store.durability}'s
    [fs] field (bypassing [real_fs]) or use it directly with
    {!Datalog.Snapshot} / {!Datalog.Wal}. *)

val arm : t -> budget:int -> mode:mode -> unit
(** Start charging ticks; the operation that exhausts the budget raises
    {!Crashed} after its partial effect (a write appends the bytes that
    fit, a flush/rename/remove at budget 0 does nothing). Once crashed,
    every further mutating operation re-raises {!Crashed}. *)

val disarm : t -> unit
(** Stop counting; pending state is kept as-is. Used for the fault-free
    measuring run. *)

val ticks : t -> int
(** Ticks consumed since [create] or the last [arm]/[disarm]. *)

val crashed : t -> bool

val settle : t -> unit
(** Apply the post-crash outcome to the file contents according to the
    armed {!mode}: [Keep_torn] promotes pending bytes into the durable
    image, [Drop_unsynced] discards them. Also un-crashes the harness
    so recovery code can read (and later write) through the same
    {!fs}. Calling it on an un-crashed harness just promotes pending
    writes (as if the process exited cleanly without closing). *)

val dump : t -> (string * string) list
(** Durable contents by path, for debugging. *)
