(* live-update: durable source updates under incremental maintenance.

   Integrity-constraint mode with inheritance off, so the federation
   program stratifies and every update goes through Datalog.Maintain
   instead of a rebuild. Durability is on, in a fresh directory under the
   working directory, through the counting filesystem: every batch is
   appended to the WAL and fsync'd before it is applied, and a small
   wal_max_bytes makes the log rotate into a checkpoint many times per
   run. Three quarters of the operations are four-molecule update batches
   (new observations, or retractions of earlier ones) spread over the
   three labs and sent as update-facts XML messages; the rest are FL
   queries reading the touched classes. The run ends with repeated
   recoveries into fresh mediators. *)

open Kind
open Common

let scale = 120
let wal_max_bytes = 16384
let recoveries = 5
let update_share = 0.75
let live_cap = 40

type fed = {
  med : Mediator.t;
  config : Mediator.config;
  labs : Wrapper.Source.t list;
  fs : Codec.fs;
  meter : Fsmeter.t;
}

let base_config =
  { Mediator.default_config with Mediator.dl_mode = Dl.Translate.Ic; inheritance = false }

let setup ~seed k =
  let dir = fresh_dir (Printf.sprintf "live-%d" k) in
  let meter = Fsmeter.create () in
  let fs = Fsmeter.wrap meter (Codec.real_fs ~root:dir) in
  let config =
    { base_config with Mediator.durability = Some { Datalog.Engine.fs; wal_max_bytes } }
  in
  let p = params ~seed ~scale in
  let labs = [ Neuro.Sources.synapse p; Neuro.Sources.ncmir p; Neuro.Sources.senselab p ] in
  let med = Mediator.create ~config Neuro.Anatom.full in
  List.iter (register_direct med) labs;
  (* the first materialization auto-checkpoints *)
  ignore (materialize med);
  { med; config; labs; fs; meter }

let send_update (f : fed) (u : update) (l : ledger) (acc : Layers.t) lead =
  let t0 = Trace.now () in
  let msg =
    Trace.span "protocol.encode" (fun () ->
        Mediation.Protocol.encode_request
          (Mediation.Protocol.Update_facts
             { source = lab_source u.lab; additions = u.adds; deletions = u.dels }))
  in
  let text = Trace.span "xmlkit.print" (fun () -> Xmlkit.Print.to_string msg) in
  match Trace.span "xmlkit.parse" (fun () -> Xmlkit.Parse.parse text) with
  | Error e ->
    fail l ("parse update message: " ^ e);
    false
  | Ok doc -> (
    let invalidated = (Mediator.cache_stats f.med).Mediator.invalidated in
    let io_ms = f.meter.Fsmeter.io_ms in
    let t1 = Trace.now () in
    let r = Trace.span "protocol.update_remote" (fun () -> Mediation.Protocol.update_remote f.med doc) in
    let remote_ms = Trace.ms_since t1 in
    let ack_ms = Trace.ms_since t0 in
    match r with
    | Error e ->
      fail l ("update_remote: " ^ e);
      false
    | Ok None ->
      fail l "update_remote: no live materialization absorbed the batch";
      false
    | Ok (Some rep) ->
      Stats.add lead ack_ms;
      acc.Layers.updates <- acc.Layers.updates + 1;
      acc.invalidated <-
        acc.invalidated + (Mediator.cache_stats f.med).Mediator.invalidated - invalidated;
      Stats.add acc.remote_ms remote_ms;
      Stats.add acc.update_ms (remote_ms -. (f.meter.Fsmeter.io_ms -. io_ms));
      Layers.record_maintenance acc ~delta_facts:(List.length u.adds + List.length u.dels) rep;
      acc.update_msg_bytes <- acc.update_msg_bytes + String.length text;
      true)

let phase (f : fed) ~seed ~seconds (l : ledger) (acc : Layers.t) =
  let g = generator ~seed ~tag:"live" in
  let rng = Random.State.make [| seed; 9 |] in
  let lead = Stats.series () and flq = Stats.series () and fresh = Stats.series () in
  (* per lab: updates sent and not yet seen by a query, oldest first *)
  let pending = Array.make 3 [] in
  let update () =
    let u = next_update g ~cap:live_cap in
    let t0 = Trace.now () in
    if send_update f u l acc lead then begin
      let i = lab_index u.lab in
      (* a retraction supersedes the pending addition of the same object *)
      pending.(i) <- List.filter (fun (u', _) -> u'.id <> u.id) pending.(i) @ [ (u, t0) ]
    end
  in
  let turn = ref (Random.State.int rng 3) in
  let query () =
    let lab = labs.(!turn mod 3) in
    incr turn;
    let q = lab_query lab in
    let r, ms, hit = query_classified f.med q in
    let t_end = Trace.now () in
    match r with
    | Error e -> fail l ("query " ^ q ^ ": " ^ e)
    | Ok answers ->
      Stats.add flq ms;
      Layers.record_query acc ~ms ~hit;
      let i = lab_index lab in
      List.iter
        (fun (u, t0) ->
          if shows answers u then Stats.add fresh (Trace.ms_between t0 t_end)
          else fail l (Printf.sprintf "query on %s missed the update of %s" (lab_source lab) u.id))
        pending.(i);
      pending.(i) <- []
  in
  acc.io_before <- Some (Fsmeter.copy f.meter);
  let loop =
    closed_loop ~seconds (fun _ ->
        if Random.State.float rng 1.0 < update_share then
          attempt l (fun () -> Trace.op "update" update)
        else attempt l (fun () -> Trace.op "flq" query))
  in
  acc.io_after <- Some (Fsmeter.copy f.meter);
  {
    loop;
    ops_per_step = 1;
    lead;
    flq;
    notes =
      [
        ( "freshness",
          Printf.sprintf "fresh_p50_ms %.4f, fresh_p90_ms %.4f over %d updates"
            (Stats.quantile fresh 0.5) (Stats.quantile fresh 0.9) fresh.Stats.n );
        (let d = Fsmeter.diff f.meter (Option.get acc.io_before) in
         ( "storage in the timed phase",
           Printf.sprintf "%d checkpoints, %d writes, %d flushes, %d renames, %d reads"
             d.checkpoints d.writes d.flushes d.renames d.reads ));
      ];
  }

(* The end-of-run oracles: the live database equals a cold
   materialization of a fresh mediator over the final stores, and every
   recovery into a fresh mediator lands on the live database. *)
let epilogue (f : fed) (l : ledger) (acc : Layers.t) =
  let live = Mediator.materialize f.med in
  let fresh_mediator config =
    let m = Mediator.create ~config Neuro.Anatom.full in
    List.iter (register_direct m) f.labs;
    m
  in
  let cold = Mediator.materialize (fresh_mediator base_config) in
  l.attempted <- l.attempted + 1;
  check l (Datalog.Database.equal live cold)
    (Printf.sprintf "live database (%d facts) differs from a cold materialization (%d facts)"
       (Datalog.Database.cardinal live) (Datalog.Database.cardinal cold));
  (* standalone reads of the same store *)
  let t0 = Trace.now () in
  (match
     Trace.span "snapshot.read" (fun () ->
         Datalog.Snapshot.read f.fs ~path:Datalog.Engine.checkpoint_file)
   with
  | Ok (Some _) -> ()
  | Ok None -> fail l "no checkpoint in the store"
  | Error e -> fail l ("snapshot read: " ^ e));
  acc.snapshot_read_ms <- Trace.ms_since t0;
  let t1 = Trace.now () in
  (match Trace.span "wal.replay" (fun () -> Datalog.Wal.replay f.fs ~path:Datalog.Engine.wal_file) with
  | Ok _ -> ()
  | Error e -> fail l ("wal replay: " ^ e));
  acc.wal_replay_ms <- Trace.ms_since t1;
  for _ = 1 to recoveries do
    l.attempted <- l.attempted + 1;
    let m = fresh_mediator f.config in
    let t0 = Trace.now () in
    let r = Trace.op "recover" (fun () -> Trace.span "mediator.recover" (fun () -> Mediator.recover m)) in
    let ms = Trace.ms_since t0 in
    match r with
    | Ok true ->
      Stats.add acc.recover_ms ms;
      check l
        (Datalog.Database.equal (Mediator.materialize m) live)
        "a recovered database differs from the live one"
    | Ok false -> fail l "recover found no checkpoint"
    | Error e -> fail l ("recover: " ^ e)
  done;
  [
    ("recover_ms", Printf.sprintf "%.4f (median of %d)" (Stats.median acc.recover_ms) recoveries);
    ("live facts", string_of_int (Datalog.Database.cardinal live));
  ]

let workload =
  {
    Harness.name = "live-update";
    tails = (0.99, 0.9);
    config =
      [
        ("config", "IC mode, inheritance off (maintained); durability on");
        ( "flush policy",
          Printf.sprintf "fsync per update batch; WAL rotates into a checkpoint past %d bytes"
            wal_max_bytes );
        ("scales", Printf.sprintf "labs %d" scale);
        ("lead", "update-facts message acknowledged by Protocol.update_remote, WAL fsync included");
        ( "mix",
          Printf.sprintf
            "3/4 updates (4 molecules; %g%% retractions, at most %d live new observations per lab), 1/4 FL queries on the labs' classes in turn"
            (100.0 *. retract_share) live_cap );
      ];
    setup;
    mediator = (fun f -> f.med);
    phase;
    epilogue;
  }
