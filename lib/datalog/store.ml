type durability = { fs : Codec.fs; wal_max_bytes : int }

let durability ?(wal_max_bytes = 1_000_000) ~dir () =
  { fs = Codec.real_fs ~root:dir; wal_max_bytes }

(* KIND_DURABLE_DIR makes every stratified materialization checkpoint
   and every maintenance batch write-ahead-log into the named directory
   — how `dune runtest` exercises durability without per-test wiring. *)
let env_durability =
  lazy
    (match Sys.getenv_opt "KIND_DURABLE_DIR" with
    | None | Some "" -> None
    | Some dir -> Some (durability ~dir ()))

let resolve = function Some _ as d -> d | None -> Lazy.force env_durability

let checkpoint_file = "checkpoint.kind"
let wal_file = "wal.kind"

let generation (snap : Snapshot.t) =
  match List.assoc_opt "generation" snap.Snapshot.counters with
  | Some v -> int_of_float v
  | None -> 0

(* The checkpoint and the log reset that follows carry a fresh
   generation: a crash between the two leaves the old log stamped with
   the old generation, which recovery detects and discards instead of
   replaying stale deltas over a materialization they never touched. *)
let write_checkpoint d ~gen ~counters ~db ~edb =
  let bytes =
    Snapshot.write d.fs ~path:checkpoint_file
      { Snapshot.db; edb; counters = ("generation", float_of_int gen) :: counters }
  in
  Wal.reset d.fs ~path:wal_file ~gen;
  bytes

let checkpoint d ?(counters = []) ~db ~edb () =
  write_checkpoint d ~gen:(Wal.generation d.fs ~path:wal_file + 1) ~counters ~db ~edb

type commit = {
  report : Maintain.report;
  rotated : bool;
  checkpoint_ms : float;
  wal_bytes : int;
}

let applied report = { report; rotated = false; checkpoint_ms = 0.0; wal_bytes = 0 }

let commit durable h (delta : Maintain.delta) =
  match durable with
  | Some d
    when List.for_all Logic.Atom.is_ground
           (delta.Maintain.additions @ delta.Maintain.deletions) -> (
    match Wal.open_log d.fs ~path:wal_file with
    | exception Failure e -> Error e
    | w -> (
      Wal.append w
        { Wal.additions = delta.Maintain.additions; deletions = delta.Maintain.deletions };
      (* the sink must not leak even when [apply] raises (e.g. max_rounds
         exceeded deep in maintenance); [Wal.close] is idempotent, so the
         early close below composes with the finalizer *)
      Fun.protect ~finally:(fun () -> Wal.close w) @@ fun () ->
      match Maintain.apply h delta with
      | Error e -> Error e
      | Ok report ->
        Wal.close w;
        let bytes = Wal.bytes w in
        if bytes <= d.wal_max_bytes then Ok { (applied report) with wal_bytes = bytes }
        else begin
          (* rotation: the generation comes from the open log, so no
             re-read. A crash between checkpoint and reset leaves the
             old-generation log beside the new checkpoint — recovery
             sees the mismatch and uses the checkpoint alone, which
             already includes this batch. *)
          let t0 = Unix.gettimeofday () in
          ignore
            (write_checkpoint d ~gen:(Wal.gen w + 1) ~counters:[] ~db:(Maintain.db h)
               ~edb:(Maintain.edb h));
          Ok
            {
              report;
              rotated = true;
              checkpoint_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
              wal_bytes = d.fs.Codec.size wal_file;
            }
        end))
  (* not durable, or a batch [apply] refuses without mutating: nothing
     to log *)
  | _ -> Result.map applied (Maintain.apply h delta)

type recovered = {
  db : Database.t;
  edb : Database.t;
  counters : (string * float) list;
  replayed : (Maintain.t * Maintain.report) option;
}

let recover d ~adopt =
  match Snapshot.read d.fs ~path:checkpoint_file with
  | Error e -> Error e
  | Ok None -> Ok None
  | Ok (Some snap) -> (
    match Wal.replay d.fs ~path:wal_file with
    | Error e -> Error e
    | Ok (wal_gen, entries, _tail) -> (
      let gen = generation snap in
      let entries =
        if wal_gen = gen then entries
        else begin
          Wal.reset d.fs ~path:wal_file ~gen;
          []
        end
      in
      let found replayed =
        Ok
          (Some
             {
               db = snap.Snapshot.db;
               edb = snap.Snapshot.edb;
               counters = snap.Snapshot.counters;
               replayed;
             })
      in
      (* the model is a function of the final base database, so the
         whole suffix replays as ONE coalesced maintenance batch; an
         empty net delta skips adoption (and its base copy) entirely *)
      let net = Wal.coalesce entries in
      if net.Wal.additions = [] && net.Wal.deletions = [] then found None
      else
        match adopt ~edb:snap.Snapshot.edb snap.Snapshot.db with
        | Error e -> Error e
        | Ok h -> (
          match
            Maintain.apply h
              (Maintain.delta ~additions:net.Wal.additions ~deletions:net.Wal.deletions ())
          with
          | Error e -> Error ("replay: " ^ e)
          | Ok rep -> found (Some (h, rep)))))
