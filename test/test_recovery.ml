(* Crash-point recovery testing of the durability stack.

   The checkpoint/WAL code does all its I/O through a {!Codec.fs}
   record, so a process crash is simulated without killing anything:
   {!Wrapper.Crashpoint} implements the record over in-memory files
   with a tick budget and raises mid-write when it runs out. One
   fault-free run measures the total tick cost of a seeded workload
   (materialize, then a few maintenance batches); each budget then
   enumerates a distinct kill point — mid-frame, between frames,
   before/after a flush, mid-rotation — and the property is

     recover after a crash in phase k  ∈  { state(k-1), state(k) }

   i.e. recovery lands on exactly the pre-batch or the post-batch
   database, bit-identical (canonical fact-set) to the fault-free
   oracle — under BOTH post-crash models (un-fsynced bytes kept torn /
   dropped).

   The matrix runs over two targets: the engine (materialize, then
   Engine.maintain batches) and the mediator (materialize, then
   Mediator.update_source batches with a WAL small enough to rotate).
   It is seeded like the fault matrix: case [i] uses seed
   [base*10_000 + i] with [base] from KIND_RECOVERY_SEED (default 0);
   KIND_RECOVERY_CASES (default 200) sets the engine's case count, and
   the mediator pass runs at most 40 of them. *)

open Logic
open Datalog
module Crashpoint = Wrapper.Crashpoint
module Mediator = Mediation.Mediator
module Runtime = Mediation.Runtime
module Molecule = Flogic.Molecule
module Source = Wrapper.Source
module Capability = Wrapper.Capability
module Fault = Wrapper.Fault

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let cases = max 1 (env_int "KIND_RECOVERY_CASES" 200)
let base_seed = env_int "KIND_RECOVERY_SEED" 0

let v = Term.var
let s = Term.sym
let atom p args = Atom.make p args
let rule h b = Rule.make h b
let edge x y = atom "edge" [ s x; s y ]

(* tc(X,Y) :- edge(X,Y).  tc(X,Y) :- edge(X,Z), tc(Z,Y).
   edge is pure EDB and tc pure IDB, so maintenance re-adoption and
   snapshot [edb] reconstruction are exact. *)
let tc_program =
  Program.make_exn
    [
      rule (atom "tc" [ v "X"; v "Y" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
      rule
        (atom "tc" [ v "X"; v "Y" ])
        [ Literal.pos "edge" [ v "X"; v "Z" ]; Literal.pos "tc" [ v "Z"; v "Y" ] ];
    ]

(* canonical fact-set image: the "bit-identical" yardstick *)
let canon db =
  Database.all_facts db
  |> List.map Atom.to_string
  |> List.sort compare |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Seeded workloads: an initial edge set plus maintenance batches      *)

type workload = {
  edb : Atom.t list;
  batches : Maintain.delta list;
  wal_max : int;  (** small on some seeds, to exercise rotation *)
}

let node st n = Printf.sprintf "n%d" (Random.State.int st n)

let gen_workload st =
  let n = 4 + Random.State.int st 5 in
  let nedges = n + Random.State.int st n in
  let gen_edge () = edge (node st n) (node st n) in
  let edb = List.init nedges (fun _ -> gen_edge ()) in
  let present = ref edb in
  let batch () =
    let adds = List.init (1 + Random.State.int st 3) (fun _ -> gen_edge ()) in
    let dels =
      if !present <> [] && Random.State.bool st then
        [ List.nth !present (Random.State.int st (List.length !present)) ]
      else []
    in
    present := adds @ List.filter (fun e -> not (List.mem e dels)) !present;
    { Maintain.additions = adds; deletions = dels }
  in
  let batches = List.init (2 + Random.State.int st 2) (fun _ -> batch ()) in
  (* every third case rotates: a WAL threshold small enough that some
     batch triggers checkpoint-and-compact, putting the rename/reset
     sequence under the kill schedule too *)
  let wal_max = if Random.State.int st 3 = 0 then 60 else 1_000_000 in
  { edb; batches; wal_max }

let config_over fs wal_max =
  {
    Engine.default_config with
    Engine.durability = Some { Engine.fs; wal_max_bytes = wal_max };
  }

(* Run the workload over [fs]; [on_phase k db] fires after phase [k]
   completes (phase 0 = initial materialization, phase j = batch j).
   Raises [Crashpoint.Crashed] out of whatever phase the budget kills. *)
let run_workload w ~fs ~on_phase =
  let config = config_over fs w.wal_max in
  let db = Engine.materialize ~config tc_program (Database.of_facts w.edb) in
  on_phase 0 db;
  List.iteri
    (fun j delta ->
      match Engine.maintain ~config tc_program db delta with
      | Ok _ -> on_phase (j + 1) db
      | Error e -> Alcotest.failf "maintain (batch %d): %s" j e)
    w.batches

(* ------------------------------------------------------------------ *)
(* The crash matrix                                                    *)

(* One matrix, two targets: the engine and the mediator. A target runs
   its seeded workload over a filesystem, reporting each completed phase
   with a thunk for its canonical state; recovers from a filesystem
   ([None] = no checkpoint); and, for the double crash, commits one more
   batch into what it recovered, returning the canonical state after. *)
type 'r target = {
  run : Codec.fs -> on_phase:(int -> (unit -> string) -> unit) -> unit;
  recover : Codec.fs -> (('r * string) option, string) result;
  commit_more : Codec.fs -> 'r -> (string, string) result;
}

let crash_matrix ~seed t =
  (* fault-free oracle: canonical state after every phase, and the
     cumulative tick cost of each phase boundary *)
  let oracle = Crashpoint.create () in
  let states = ref [] and marks = ref [] in
  t.run (Crashpoint.fs oracle) ~on_phase:(fun k state ->
      states := (k, state ()) :: !states;
      marks := Crashpoint.ticks oracle :: !marks);
  let states = List.rev !states in
  let total = Crashpoint.ticks oracle in
  let nphases = List.length states in
  (* sanity: the oracle's own store recovers to the final state *)
  (match t.recover (Crashpoint.fs oracle) with
  | Ok (Some (_, got)) ->
    Alcotest.(check string)
      "fault-free recovery is bit-identical to the oracle"
      (List.assoc (nphases - 1) states)
      got
  | Ok None -> Alcotest.fail "fault-free store lost its checkpoint"
  | Error e -> Alcotest.failf "fault-free recovery: %s" e);
  (* kill schedule: every phase boundary ±1, plus seeded spread *)
  let st = Random.State.make [| seed + 7 |] in
  let budgets =
    List.concat_map (fun m -> [ m - 1; m; m + 1 ]) !marks
    @ [ 0; 1; total - 1 ]
    @ List.init 6 (fun _ -> Random.State.int st (max 1 total))
    |> List.filter (fun b -> b >= 0 && b < total)
    |> List.sort_uniq compare
  in
  let state_of k = if k < 0 then None else Some (List.assoc k states) in
  List.iter
    (fun budget ->
      List.iter
        (fun mode ->
          let cp = Crashpoint.create () in
          Crashpoint.arm cp ~budget ~mode;
          let completed = ref (-1) in
          (try t.run (Crashpoint.fs cp) ~on_phase:(fun k _ -> completed := k)
           with Crashpoint.Crashed -> ());
          Crashpoint.settle cp;
          let allowed =
            [ state_of !completed; state_of (min (!completed + 1) (nphases - 1)) ]
          in
          let label verdict =
            Printf.sprintf
              "seed %d budget %d/%d mode %s: crash in phase %d recovered to %s"
              seed budget total
              (match mode with
              | Crashpoint.Keep_torn -> "keep-torn"
              | Crashpoint.Drop_unsynced -> "drop-unsynced")
              (!completed + 1) verdict
          in
          match t.recover (Crashpoint.fs cp) with
          | Error e -> Alcotest.fail (label ("error: " ^ e))
          | Ok None ->
            if not (List.mem None allowed) then
              Alcotest.fail (label "no checkpoint, but one phase had committed")
          | Ok (Some (recovered, got)) -> (
            if not (List.mem (Some got) allowed) then
              Alcotest.fail
                (label "a state that is neither pre- nor post-crash-phase");
            (* double crash: a batch acknowledged AFTER recovery must
               survive a second recovery — regression for appends
               stranded behind a torn tail, and for a stale log paired
               with a newer checkpoint *)
            match t.commit_more (Crashpoint.fs cp) recovered with
            | Error e -> Alcotest.fail (label ("post-recovery batch: " ^ e))
            | Ok after -> (
              match t.recover (Crashpoint.fs cp) with
              | Ok (Some (_, again)) ->
                Alcotest.(check string)
                  (label "second recovery keeps the post-recovery batch")
                  after again
              | Ok None -> Alcotest.fail (label "checkpoint vanished")
              | Error e -> Alcotest.fail (label ("second recovery: " ^ e)))))
        [ Crashpoint.Keep_torn; Crashpoint.Drop_unsynced ])
    budgets

let engine_target w =
  {
    run =
      (fun fs ~on_phase ->
        run_workload w ~fs ~on_phase:(fun k db -> on_phase k (fun () -> canon db)));
    recover =
      (fun fs ->
        Result.map
          (Option.map (fun db -> (db, canon db)))
          (Engine.recover ~config:(config_over fs w.wal_max) tc_program));
    commit_more =
      (fun fs db ->
        Result.map
          (fun _ -> canon db)
          (Engine.maintain ~config:(config_over fs w.wal_max) tc_program db
             { Maintain.additions = [ edge "zz" "n0" ]; deletions = [] }));
  }

let test_crash_matrix () =
  for i = 0 to cases - 1 do
    let seed = (base_seed * 10_000) + i in
    crash_matrix ~seed (engine_target (gen_workload (Random.State.make [| seed |])))
  done

(* ------------------------------------------------------------------ *)
(* Snapshot: roundtrip and torn-image totality                         *)

let some_db st =
  let facts =
    List.init
      (3 + Random.State.int st 20)
      (fun i ->
        match Random.State.int st 4 with
        | 0 -> edge (node st 6) (node st 6)
        | 1 -> atom "m" [ s "o"; Term.float (float_of_int i /. 3.0) ]
        | 2 -> atom "tag" [ Term.str (Printf.sprintf "t%d\n\"" i) ]
        | _ ->
          (* nested ground app terms, as skolemized assertions make *)
          atom "sk" [ Term.app "f" [ Term.app "g" [ s (node st 6) ]; Term.int i ] ])
  in
  Database.of_facts facts

let test_snapshot_roundtrip () =
  let st = Random.State.make [| base_seed |] in
  for _ = 1 to 30 do
    let db = some_db st and edb = some_db st in
    let snap = { Snapshot.db; edb; counters = [ ("rounds", 3.0) ] } in
    match Snapshot.decode (Snapshot.encode snap) with
    | Error e -> Alcotest.failf "decode (encode snap): %s" e
    | Ok snap' ->
      Alcotest.(check bool) "restore (checkpoint db) == db" true
        (Database.equal db snap'.Snapshot.db);
      Alcotest.(check bool) "edb roundtrips" true
        (Database.equal edb snap'.Snapshot.edb);
      Alcotest.(check (list (pair string (float 0.0))))
        "counters roundtrip"
        [ ("rounds", 3.0) ]
        snap'.Snapshot.counters
  done

let test_snapshot_truncation_total () =
  let st = Random.State.make [| base_seed + 1 |] in
  let img =
    Snapshot.encode { Snapshot.db = some_db st; edb = some_db st; counters = [] }
  in
  let n = String.length img in
  for l = 0 to n - 1 do
    match Snapshot.decode (String.sub img 0 l) with
    | Error _ -> () (* an incomplete checkpoint is invalid as a whole *)
    | Ok _ -> Alcotest.failf "truncation at %d/%d decoded" l n
  done;
  (* corruption anywhere must be caught by the frame checksums *)
  for _ = 1 to 50 do
    let i = Random.State.int st n in
    let b = Bytes.of_string img in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5b));
    match Snapshot.decode (Bytes.to_string b) with
    | Error _ -> ()
    | Ok snap' ->
      (* a flip in padding-free encodings must still yield the same
         database if it decodes at all (e.g. flipping a bit of a float
         payload is caught by the CRC, so this branch means the flip
         was in a bit the decoder ignores — there are none) *)
      ignore snap';
      Alcotest.failf "bit flip at %d went unnoticed" i
  done

(* ------------------------------------------------------------------ *)
(* WAL: roundtrip, torn tails at every byte                            *)

let entries_equal (a : Wal.entry) (b : Wal.entry) =
  a.Wal.additions = b.Wal.additions && a.Wal.deletions = b.Wal.deletions

let test_wal_roundtrip_and_torn () =
  let cp = Crashpoint.create () in
  let fs = Crashpoint.fs cp in
  let entries =
    [
      { Wal.additions = [ edge "a" "b"; edge "b" "c" ]; deletions = [] };
      { Wal.additions = []; deletions = [ edge "a" "b" ] };
      { Wal.additions = [ atom "m" [ s "o"; Term.float 1.5 ] ];
        deletions = [ edge "b" "c" ];
      };
    ]
  in
  let w = Wal.open_log fs ~path:"wal.kind" in
  List.iter (Wal.append w) entries;
  Wal.close w;
  Crashpoint.settle cp;
  let img =
    match (Crashpoint.fs cp).Codec.read "wal.kind" with
    | Some img -> img
    | None -> Alcotest.fail "log vanished"
  in
  (match Wal.replay fs ~path:"wal.kind" with
  | Ok (_, got, Codec.Clean) ->
    Alcotest.(check int) "all entries back" (List.length entries)
      (List.length got);
    List.iter2
      (fun a b -> Alcotest.(check bool) "entry roundtrips" true (entries_equal a b))
      entries got
  | Ok (_, _, Codec.Torn _) -> Alcotest.fail "clean log read as torn"
  | Error e -> Alcotest.fail e);
  (* every truncation point: replay never raises, never invents an
     entry, and keeps every complete prefix entry *)
  let header = String.length (Codec.file_header ~magic:Wal.magic) in
  for l = 0 to String.length img - 1 do
    let tcp = Crashpoint.create () in
    let sink = (Crashpoint.fs tcp).Codec.sink ~append:false "wal.kind" in
    sink.Codec.write (String.sub img 0 l);
    sink.Codec.flush ();
    sink.Codec.close ();
    match Wal.replay (Crashpoint.fs tcp) ~path:"wal.kind" with
    | Ok (_, got, tail) ->
      let n = List.length got in
      Alcotest.(check bool)
        (Printf.sprintf "prefix at %d: %d entries, monotone" l n)
        true
        (n <= List.length entries
        && List.for_all2 entries_equal got
             (List.filteri (fun i _ -> i < n) entries));
      if l < String.length img && l > header then
        Alcotest.(check bool)
          (Printf.sprintf "tail at %d is torn" l)
          true
          (match tail with Codec.Torn _ -> true | Codec.Clean -> n < 3)
    | Error e ->
      (* only the header itself is load-bearing *)
      if l >= header then Alcotest.failf "replay at %d: %s" l e
  done

(* Double-crash regression: a crash mid-append leaves a torn tail;
   open_log must repair it (atomic rewrite to the last frame boundary)
   before appending, or every acknowledged post-recovery batch would
   sit unreachable behind the tear on the NEXT recovery. *)
let test_wal_torn_tail_then_append () =
  let e1 = { Wal.additions = [ edge "a" "b" ]; deletions = [] } in
  let e2 = { Wal.additions = [ edge "b" "c" ]; deletions = [] } in
  let e3 = { Wal.additions = [ edge "c" "d" ]; deletions = [ edge "a" "b" ] } in
  let cp = Crashpoint.create () in
  let fs = Crashpoint.fs cp in
  let w = Wal.open_log fs ~path:"wal.kind" in
  Wal.append w e1;
  Wal.append w e2;
  Wal.close w;
  Crashpoint.settle cp;
  let img =
    match fs.Codec.read "wal.kind" with
    | Some img -> img
    | None -> Alcotest.fail "log vanished"
  in
  (* tear e2's frame: what a crash mid-append leaves on disk *)
  let sink = fs.Codec.sink ~append:false "wal.kind" in
  sink.Codec.write (String.sub img 0 (String.length img - 3));
  sink.Codec.flush ();
  sink.Codec.close ();
  let w = Wal.open_log fs ~path:"wal.kind" in
  Wal.append w e3;
  Wal.close w;
  Crashpoint.settle cp;
  match Wal.replay fs ~path:"wal.kind" with
  | Error e -> Alcotest.fail e
  | Ok (_, got, tail) ->
    Alcotest.(check bool) "post-repair log reads clean" true
      (tail = Codec.Clean);
    Alcotest.(check int) "torn entry dropped, appended entry kept" 2
      (List.length got);
    Alcotest.(check bool) "surviving prefix + new entry" true
      (entries_equal (List.nth got 0) e1 && entries_equal (List.nth got 1) e3)

(* Generation pairing: a crash between materialize's checkpoint write
   and its WAL reset must not replay the previous incarnation's log
   over the fresh materialization. *)
let test_engine_recover_stale_wal () =
  let cp = Crashpoint.create () in
  let fs = Crashpoint.fs cp in
  let config = config_over fs 1_000_000 in
  let db =
    Engine.materialize ~config tc_program (Database.of_facts [ edge "a" "b" ])
  in
  (match
     Engine.maintain ~config tc_program db
       { Maintain.additions = [ edge "b" "c" ]; deletions = [] }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* second materialization from a different base, crashed between
     Snapshot.write and Wal.reset: exactly the on-disk state such a
     crash leaves — a bumped-generation checkpoint over the old WAL *)
  let edb2 = Database.of_facts [ edge "x" "y" ] in
  let fresh = Engine.materialize tc_program edb2 in
  let gen = Wal.generation fs ~path:Engine.wal_file + 1 in
  ignore
    (Snapshot.write fs ~path:Engine.checkpoint_file
       {
         Snapshot.db = Database.copy fresh;
         edb = edb2;
         counters = [ ("generation", float_of_int gen) ];
       });
  (match Engine.recover ~config tc_program with
  | Ok (Some db') ->
    Alcotest.(check string)
      "stale WAL ignored: recovery is the fresh materialization"
      (canon fresh) (canon db')
  | Ok None -> Alcotest.fail "checkpoint lost"
  | Error e -> Alcotest.fail e);
  (* recovery repaired the pairing: the log is stamped with the
     checkpoint's generation and holds no stale entries *)
  match Wal.replay fs ~path:Engine.wal_file with
  | Ok (g, [], _) -> Alcotest.(check int) "log re-stamped" gen g
  | Ok (_, _ :: _, _) -> Alcotest.fail "stale entries survived recovery"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Engine.recover: directed                                            *)

let test_engine_recover_directed () =
  let cp = Crashpoint.create () in
  let config = config_over (Crashpoint.fs cp) 1_000_000 in
  (* cold start: no checkpoint yet *)
  (match Engine.recover ~config tc_program with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "recovered from an empty store"
  | Error e -> Alcotest.fail e);
  let db =
    Engine.materialize ~config tc_program
      (Database.of_facts [ edge "a" "b"; edge "b" "c" ])
  in
  List.iter
    (fun delta ->
      match Engine.maintain ~config tc_program db delta with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [
      { Maintain.additions = [ edge "c" "d" ]; deletions = [] };
      { Maintain.additions = []; deletions = [ edge "a" "b" ] };
    ];
  let report = ref Engine.empty_report in
  (match Engine.recover ~config ~report tc_program with
  | Ok (Some db') ->
    Alcotest.(check string) "checkpoint + WAL replay = live database"
      (canon db) (canon db')
  | Ok None -> Alcotest.fail "no checkpoint after materialize"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "wal_bytes counted" true (!report.Engine.wal_bytes > 0);
  Alcotest.(check bool) "recovery_ms filled" true
    (!report.Engine.recovery_ms >= 0.0);
  (* no durability configured: recover must refuse, not guess.
     KIND_DURABLE_DIR may be legitimately set for the whole run (the CI
     durability pass) — then the env fallback applies instead. *)
  match Sys.getenv_opt "KIND_DURABLE_DIR" with
  | Some _ -> ()
  | None -> (
    match Engine.recover tc_program with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "recover without durability configured")

let test_engine_recover_rotation () =
  let cp = Crashpoint.create () in
  let config = config_over (Crashpoint.fs cp) 40 (* rotate almost every batch *) in
  let db =
    Engine.materialize ~config tc_program (Database.of_facts [ edge "a" "b" ])
  in
  let report = ref Engine.empty_report in
  for i = 0 to 9 do
    let delta =
      { Maintain.additions = [ edge (Printf.sprintf "n%d" i) "a" ]; deletions = [] }
    in
    match Engine.maintain ~config ~report tc_program db delta with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  (* rotation happened: the log was compacted back below the threshold *)
  Alcotest.(check bool) "log compacted by rotation" true
    ((Crashpoint.fs cp).Codec.size Engine.wal_file
    < (Crashpoint.fs cp).Codec.size Engine.checkpoint_file);
  Alcotest.(check bool) "rotation cost accounted" true
    (!report.Engine.checkpoint_ms >= 0.0);
  match Engine.recover ~config tc_program with
  | Ok (Some db') ->
    Alcotest.(check string) "recovery across rotations" (canon db) (canon db')
  | Ok None -> Alcotest.fail "checkpoint lost in rotation"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Mediator: checkpoint / recover, federation state resumes            *)

let tiny_dmap () =
  let open Domain_map.Dmap in
  List.fold_left
    (fun dm (sub, super) -> isa dm sub super)
    (add_concepts empty [ "thing"; "region"; "cell" ])
    [ ("region", "thing"); ("cell", "thing") ]

let mk_source name concept vals =
  let schema =
    Gcm.Schema.make ~name
      ~classes:[ Gcm.Schema.class_def "c" ~methods:[ ("m", "number") ] ]
      ()
  in
  let data =
    List.concat_map
      (fun (obj, x) ->
        let id = Term.sym obj in
        [ Molecule.Isa (id, Term.sym "c"); Molecule.Meth_val (id, "m", Term.float x) ])
      vals
  in
  Source.make ~name ~schema
    ~capabilities:[ Capability.scan_class "c" ]
    ~anchors:[ ("c", concept, []) ]
    ~data ()

let hot_ivd =
  [
    Molecule.rule
      (Molecule.Pred (Atom.make "hot" [ v "X" ]))
      [
        Molecule.Pos (Molecule.Isa (v "X", Term.sym "region"));
        Molecule.Pos (Molecule.Meth_val (v "X", "m", v "V"));
        Molecule.Cmp (Literal.Gt, v "V", Term.float 2.0);
      ];
  ]

let med_config ?(wal_max = 1_000_000) fs =
  {
    Mediator.default_config with
    Mediator.dl_mode = Dl.Translate.Ic;
    inheritance = false;
    durability = Some { Engine.fs; wal_max_bytes = wal_max };
  }

let build_med ?wal_max fs =
  let med = Mediator.create ~config:(med_config ?wal_max fs) (tiny_dmap ()) in
  List.iter
    (fun src ->
      match Mediator.register_source med src with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [
      mk_source "A" "region" [ ("a1", 3.0); ("a2", 1.0) ];
      mk_source "B" "region" [ ("b1", 5.0) ];
      mk_source "C" "cell" [ ("c1", 4.0) ];
    ];
  (match Mediator.add_ivd med hot_ivd with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  med

let hot_goal = [ Molecule.Pos (Molecule.Pred (Atom.make "hot" [ v "X" ])) ]

let answers med lits =
  Mediator.query med lits
  |> List.map (fun sb -> Format.asprintf "%a" Subst.pp sb)
  |> List.sort_uniq compare

let test_mediator_recover () =
  let cp = Crashpoint.create () in
  let fs = Crashpoint.fs cp in
  let med = build_med fs in
  let want = answers med hot_goal in
  (match
     Mediator.update_source med ~source:"A"
       ~additions:
         [
           Molecule.Isa (Term.sym "a9", Term.sym "c");
           Molecule.Meth_val (Term.sym "a9", "m", Term.float 9.0);
         ]
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let want_after = answers med hot_goal in
  Alcotest.(check bool) "update changed the answer" true (want <> want_after);
  (* a second mediator over the same store: same topology, fresh state *)
  let med2 = build_med fs in
  (match Mediator.recover med2 with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "no checkpoint found"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string))
    "recovered federation answers like the live one" want_after
    (answers med2 hot_goal);
  (* the WAL entry for the update replayed through maintenance *)
  match Mediator.last_maintenance med2 with
  | Some _ -> ()
  | None -> Alcotest.fail "recovery did not go through incremental maintenance"

let test_mediator_recover_breaker () =
  let cp = Crashpoint.create () in
  let fs = Crashpoint.fs cp in
  let med = build_med fs in
  (match
     Mediator.set_fault_plan med ~source:"B"
       (Fault.Script [ { Fault.at = 1; fault = Fault.Crash } ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let degraded = answers med hot_goal in
  let h = Runtime.health (Mediator.runtime med) "B" in
  Alcotest.(check bool) "B tripped" true (h.Runtime.state = Runtime.Open);
  (* persist the degraded federation, then resurrect it elsewhere *)
  (match Mediator.checkpoint med with
  | Ok bytes -> Alcotest.(check bool) "checkpoint non-empty" true (bytes > 0)
  | Error e -> Alcotest.fail e);
  let med2 = build_med fs in
  (match Mediator.recover med2 with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "no checkpoint found"
  | Error e -> Alcotest.fail e);
  let h2 = Runtime.health (Mediator.runtime med2) "B" in
  Alcotest.(check bool) "breaker state survives recovery" true
    (h2.Runtime.state = h.Runtime.state
    && h2.Runtime.open_until = h.Runtime.open_until
    && h2.Runtime.quarantined = h.Runtime.quarantined);
  Alcotest.(check int) "trip count survives" h.Runtime.trips h2.Runtime.trips;
  Alcotest.(check int) "virtual clock survives"
    (Runtime.clock (Mediator.runtime med))
    (Runtime.clock (Mediator.runtime med2));
  Alcotest.(check int) "degraded-query ledger survives"
    (Mediator.degraded_queries med)
    (Mediator.degraded_queries med2);
  Alcotest.(check (list string))
    "recovered federation degrades identically" degraded
    (answers med2 hot_goal);
  (* recovery resumes half-open probing: once the open period lapses on
     the restored clock, the next fetch probes the source again instead
     of failing fast forever *)
  let rt2 = Runtime.clock (Mediator.runtime med2) in
  Runtime.advance (Mediator.runtime med2) (max 1 (h2.Runtime.open_until - rt2));
  ignore (Mediator.query med2 hot_goal);
  let h2' = Runtime.health (Mediator.runtime med2) "B" in
  Alcotest.(check bool) "half-open probe attempted after the open period" true
    (h2'.Runtime.calls > h2.Runtime.calls || h2'.Runtime.quarantined)

(* ------------------------------------------------------------------ *)
(* The crash matrix, mediator pass                                     *)

(* the molecules of one source object, as update_source takes them *)
let object_molecules (obj, x) =
  [ Molecule.Isa (Term.sym obj, Term.sym "c"); Molecule.Meth_val (Term.sym obj, "m", Term.float x) ]

type med_workload = {
  updates : (string * (string * float) list * (string * float) list) list;
      (** source, objects added, objects removed *)
  med_wal_max : int;
}

(* update batches over build_med's three sources: new objects, and now
   and then the removal of one the source still holds *)
let gen_med_workload st =
  let present =
    ref [ ("A", [ ("a1", 3.0); ("a2", 1.0) ]); ("B", [ ("b1", 5.0) ]); ("C", [ ("c1", 4.0) ]) ]
  in
  let fresh = ref 0 in
  let update () =
    let source, held = List.nth !present (Random.State.int st 3) in
    let adds =
      List.init
        (1 + Random.State.int st 2)
        (fun _ ->
          incr fresh;
          ( Printf.sprintf "%s%d" (String.lowercase_ascii source) (10 + !fresh),
            float_of_int (Random.State.int st 6) ))
    in
    let dels =
      if held <> [] && Random.State.bool st then
        [ List.nth held (Random.State.int st (List.length held)) ]
      else []
    in
    present :=
      List.map
        (fun (src, objs) ->
          if src = source then (src, adds @ List.filter (fun o -> not (List.mem o dels)) objs)
          else (src, objs))
        !present;
    (source, adds, dels)
  in
  let updates = List.init (2 + Random.State.int st 3) (fun _ -> update ()) in
  (* a few hundred bytes: rotations fall inside the run, so the
     checkpoint/reset/federation-save sequence is under the kill
     schedule too *)
  { updates; med_wal_max = 150 + Random.State.int st 300 }

let med_state med () = canon (Mediator.materialize med)

let mediator_target w =
  let build fs = build_med ~wal_max:w.med_wal_max fs in
  let update med (source, adds, dels) =
    match
      Mediator.update_source med ~source
        ~additions:(List.concat_map object_molecules adds)
        ~deletions:(List.concat_map object_molecules dels)
        ()
    with
    | Ok (Some _) -> Ok ()
    | Ok None -> Error "no live materialization absorbed the update"
    | Error e -> Error e
  in
  {
    run =
      (fun fs ~on_phase ->
        let med = build fs in
        (* the first materialization auto-checkpoints *)
        ignore (Mediator.materialize med);
        on_phase 0 (med_state med);
        List.iteri
          (fun j u ->
            match update med u with
            | Ok () -> on_phase (j + 1) (med_state med)
            | Error e -> Alcotest.failf "update (batch %d): %s" j e)
          w.updates);
    recover =
      (fun fs ->
        let med = build fs in
        Result.map
          (fun found -> if found then Some (med, med_state med ()) else None)
          (Mediator.recover med));
    commit_more =
      (fun _ med ->
        Result.map (med_state med) (update med ("A", [ ("zz", 7.0) ], [])));
  }

(* about 40 cases: each kill point rebuilds a whole mediator *)
let med_cases = min cases 40

let test_mediator_crash_matrix () =
  for i = 0 to med_cases - 1 do
    let seed = (base_seed * 10_000) + i in
    crash_matrix ~seed (mediator_target (gen_med_workload (Random.State.make [| seed |])))
  done

(* ------------------------------------------------------------------ *)
(* A foreign or corrupt log refuses the batch                          *)

(* long enough to pass for a log header, but not a KIND log *)
let foreign_log = String.make 64 'x'

let damage_log fs =
  let sink = fs.Codec.sink ~append:false Engine.wal_file in
  sink.Codec.write foreign_log;
  sink.Codec.flush ();
  sink.Codec.close ()

let test_engine_maintain_damaged_log () =
  let fs = Crashpoint.fs (Crashpoint.create ()) in
  let config = config_over fs 1_000_000 in
  let db =
    Engine.materialize ~config tc_program (Database.of_facts [ edge "a" "b" ])
  in
  let before = canon db in
  damage_log fs;
  (match
     Engine.maintain ~config tc_program db
       { Maintain.additions = [ edge "b" "c" ]; deletions = [] }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a batch was absorbed past a foreign log");
  Alcotest.(check string) "nothing applied" before (canon db);
  Alcotest.(check (option string)) "nothing logged" (Some foreign_log)
    (fs.Codec.read Engine.wal_file)

let test_mediator_update_damaged_log () =
  let fs = Crashpoint.fs (Crashpoint.create ()) in
  let med = build_med fs in
  let before = answers med hot_goal in
  damage_log fs;
  let batch = object_molecules ("a9", 9.0) in
  (match Mediator.update_source med ~source:"A" ~additions:batch () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a batch was absorbed past a foreign log");
  (* the wrapper store took the batch, and the dropped materialization
     is rebuilt from it *)
  let fresh = build_med (Crashpoint.fs (Crashpoint.create ())) in
  ignore (Mediator.update_source fresh ~source:"A" ~additions:batch ());
  let want = answers fresh hot_goal in
  Alcotest.(check bool) "the update changes the answer" true (want <> before);
  Alcotest.(check (list string)) "answers follow the wrapper store" want
    (answers med hot_goal);
  (* the rebuild's checkpoint re-paired the store *)
  let med2 = build_med fs in
  (match Mediator.recover med2 with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "no checkpoint found"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "recovery after the rebuild" want
    (answers med2 hot_goal)

let suites =
  [
    ( Printf.sprintf "recovery [seed %d, %d cases]" base_seed cases,
      [
        Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "snapshot truncation/corruption totality" `Quick
          test_snapshot_truncation_total;
        Alcotest.test_case "wal roundtrip + torn tails" `Quick
          test_wal_roundtrip_and_torn;
        Alcotest.test_case "wal torn tail repaired before append" `Quick
          test_wal_torn_tail_then_append;
        Alcotest.test_case "stale WAL discarded by generation pairing" `Quick
          test_engine_recover_stale_wal;
        Alcotest.test_case "engine recover (directed)" `Quick
          test_engine_recover_directed;
        Alcotest.test_case "engine recover across rotation" `Quick
          test_engine_recover_rotation;
        Alcotest.test_case "mediator checkpoint/recover" `Quick
          test_mediator_recover;
        Alcotest.test_case "mediator recovery resumes breakers" `Quick
          test_mediator_recover_breaker;
        Alcotest.test_case "engine maintain refuses a foreign log" `Quick
          test_engine_maintain_damaged_log;
        Alcotest.test_case "mediator update refuses a foreign log" `Quick
          test_mediator_update_damaged_log;
        Alcotest.test_case "crash matrix" `Slow test_crash_matrix;
        Alcotest.test_case "crash matrix, mediator pass" `Slow
          test_mediator_crash_matrix;
      ] );
  ]
