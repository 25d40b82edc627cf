(* A counting and timing decorator around a durability filesystem.

   Passed to the mediator as its durability [fs], it counts what the
   checkpoint / WAL / federation-state writers do to the disk — writes,
   bytes, flushes (fsync on [Codec.real_fs]) and their wall time,
   renames, reads — and records each call as a trace span. *)

open Kind

type t = {
  mutable writes : int;
  mutable bytes : int;
  mutable flushes : int;
  mutable flush_ms : float;
  mutable renames : int;
  mutable checkpoints : int;  (** renames onto the engine checkpoint file *)
  mutable reads : int;
  mutable io_ms : float;  (** wall time inside every call of the filesystem *)
}

let create () =
  { writes = 0; bytes = 0; flushes = 0; flush_ms = 0.0; renames = 0; checkpoints = 0; reads = 0; io_ms = 0.0 }

let copy m = { m with writes = m.writes }

(* What happened between two copies: [later] minus [earlier]. *)
let diff later earlier =
  {
    writes = later.writes - earlier.writes;
    bytes = later.bytes - earlier.bytes;
    flushes = later.flushes - earlier.flushes;
    flush_ms = later.flush_ms -. earlier.flush_ms;
    renames = later.renames - earlier.renames;
    checkpoints = later.checkpoints - earlier.checkpoints;
    reads = later.reads - earlier.reads;
    io_ms = later.io_ms -. earlier.io_ms;
  }

let wrap m (fs : Codec.fs) : Codec.fs =
  let timed name f =
    let t0 = Trace.now () in
    let y = Trace.span name f in
    let ms = Trace.ms_since t0 in
    m.io_ms <- m.io_ms +. ms;
    (y, ms)
  in
  let io name f = fst (timed name f) in
  let sink ~append path =
    let s = io "codec.open" (fun () -> fs.Codec.sink ~append path) in
    {
      Codec.write =
        (fun data ->
          m.writes <- m.writes + 1;
          m.bytes <- m.bytes + String.length data;
          io "codec.write" (fun () -> s.Codec.write data));
      flush =
        (fun () ->
          let (), ms = timed "codec.flush" s.Codec.flush in
          m.flushes <- m.flushes + 1;
          m.flush_ms <- m.flush_ms +. ms);
      close = (fun () -> io "codec.close" s.Codec.close);
    }
  in
  {
    Codec.read =
      (fun path ->
        m.reads <- m.reads + 1;
        io "codec.read" (fun () -> fs.Codec.read path));
    sink;
    rename =
      (fun src dst ->
        m.renames <- m.renames + 1;
        if dst = Datalog.Engine.checkpoint_file then m.checkpoints <- m.checkpoints + 1;
        io "codec.rename" (fun () -> fs.Codec.rename src dst));
    remove = (fun path -> io "codec.remove" (fun () -> fs.Codec.remove path));
    exists = fs.Codec.exists;
    size = fs.Codec.size;
  }
