(* REC — crash recovery: checkpoint + WAL replay vs cold rebuild.

   The durability claim under test (DESIGN.md §14): recovering a
   materialization from the last checkpoint plus the WAL suffix costs
   time proportional to the log suffix, not to the database — so on
   the tc-deep workload (a single deep chain closed under transitive
   closure, the quadratic-model shape from the join benchmarks),
   [Engine.recover] must beat re-materializing from scratch, and the
   gap must shrink as the un-checkpointed suffix grows.

   Measured series: cold rebuild of the final database vs recovery
   after W maintenance batches since the checkpoint, for W in
   {0, 8, 32, 128}. Results land in BENCH_recovery.json; the
   [recovery-smoke] gate re-runs a trimmed version and fails when
   recovery at the mid suffix is slower than the cold rebuild. *)

open Kind
module Engine = Datalog.Engine
module Database = Datalog.Database
module Maintain = Datalog.Maintain

let v = Logic.Term.var
let s = Logic.Term.sym
let node k = s (Printf.sprintf "n%d" k)
let edge a b = Logic.Atom.make "edge" [ a; b ]

let tc_program =
  Datalog.Program.make_exn
    [
      Logic.Rule.make
        (Logic.Atom.make "tc" [ v "X"; v "Y" ])
        [ Logic.Literal.pos "edge" [ v "X"; v "Y" ] ];
      Logic.Rule.make
        (Logic.Atom.make "tc" [ v "X"; v "Y" ])
        [
          Logic.Literal.pos "tc" [ v "X"; v "Z" ];
          Logic.Literal.pos "edge" [ v "Z"; v "Y" ];
        ];
    ]

let chain n = List.init n (fun k -> edge (node k) (node (k + 1)))

(* Batch j hangs a fresh leaf off a node low in the chain — the
   mediator-shaped update: a source asserts a new fact about an
   existing entity. Its derived footprint is the leaf's ancestor set
   (at most [spread] tc facts), so replay cost is proportional to the
   suffix, independent of the database. A chain-{e tip} extension
   would instead rederive ~depth facts per entry — a whole-database
   recomputation smuggled into the log, which no incremental scheme
   (and no checkpoint) can beat. *)
let spread = 16

let leaf j = s (Printf.sprintf "m%d" j)

let batch j =
  { Maintain.additions = [ edge (node (j mod spread)) (leaf j) ]; deletions = [] }

let suffix_edges w = List.init w batch |> List.concat_map (fun b -> b.Maintain.additions)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kind-bench-recovery-%d-%d" (Unix.getpid ()) !counter)

let cleanup dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Build a durable store: checkpoint at depth [depth], then [w] WAL
   batches on top. Returns the directory and the config to recover
   with. *)
let build_store ~depth ~w =
  let dir = fresh_dir () in
  cleanup dir;
  let config =
    {
      Engine.default_config with
      Engine.durability = Some (Datalog.Store.durability ~dir ());
    }
  in
  let db = Engine.materialize ~config tc_program (Database.of_facts (chain depth)) in
  for j = 0 to w - 1 do
    match Engine.maintain ~config tc_program db (batch j) with
    | Ok _ -> ()
    | Error e -> failwith ("exp_recovery: maintain: " ^ e)
  done;
  (dir, config, Database.cardinal db)

let recover_ms ?(timer = Util.time_median) ~reps config =
  let once () =
    match Engine.recover ~config tc_program with
    | Ok (Some db) -> ignore (Database.cardinal db)
    | Ok None -> failwith "exp_recovery: checkpoint missing"
    | Error e -> failwith ("exp_recovery: recover: " ^ e)
  in
  once () (* untimed warmup: page cache, intern pool, allocator *);
  timer ~reps once

let cold_ms ?(timer = Util.time_median) ~reps ~depth ~w () =
  let edb = chain depth @ suffix_edges w in
  let once () =
    ignore (Engine.materialize tc_program (Database.of_facts edb))
  in
  once ();
  timer ~reps once

let suffixes = [ 0; 8; 32; 128 ]

let measure ~reps ~depth =
  List.map
    (fun w ->
      let dir, config, cardinal = build_store ~depth ~w in
      let rec_ms = recover_ms ~reps config in
      let wal_bytes =
        match config.Engine.durability with
        | Some d -> d.Engine.fs.Codec.size Engine.wal_file
        | None -> 0
      in
      cleanup dir;
      (w, rec_ms, cold_ms ~reps ~depth ~w (), cardinal, wal_bytes))
    suffixes

let run () =
  Util.header "REC  Crash recovery: checkpoint + WAL replay vs cold rebuild";
  let depth = 240 in
  let rows = measure ~reps:5 ~depth in
  Util.table
    ~columns:[ "wal suffix"; "recover ms"; "cold rebuild ms"; "speedup"; "facts"; "wal bytes" ]
    (List.map
       (fun (w, r, c, n, wb) ->
         [
           Util.fint w; Util.fms r; Util.fms c;
           Printf.sprintf "%.1fx" (c /. r); Util.fint n; Util.fint wb;
         ])
       rows);
  Util.note "claim: replay cost tracks the WAL suffix, not the database —";
  Util.note "recovery from a fresh checkpoint is a read, not a fixpoint.";
  let field w name v = (Printf.sprintf "%s_w%d" name w, v) in
  Util.write_json "BENCH_recovery.json"
    (("workload", "\"tc-deep\"")
    :: ("depth", string_of_int depth)
    :: List.concat_map
         (fun (w, r, c, n, wb) ->
           [
             field w "recovery_ms" (Util.fms r);
             field w "cold_rebuild_ms" (Util.fms c);
             field w "facts" (string_of_int n);
             field w "wal_bytes" (string_of_int wb);
           ])
         rows);
  Util.note "wrote BENCH_recovery.json"

(* The CI gate: recovery at the mid suffix must not be slower than the
   cold rebuild it replaces. Self-contained (no committed reference),
   trimmed depth so it runs in seconds. *)
let smoke () =
  Util.header "REC-SMOKE  recovery_ms <= cold_rebuild_ms on tc-deep";
  (* min-of-reps on both sides: scheduler noise only adds time, so the
     gate compares true costs, not whichever run a CI neighbor hit *)
  let depth = 240 and w = 32 in
  let dir, config, _ = build_store ~depth ~w in
  let rec_ms = recover_ms ~timer:Util.time_min ~reps:7 config in
  cleanup dir;
  let cold = cold_ms ~timer:Util.time_min ~reps:7 ~depth ~w () in
  Util.table
    ~columns:[ "wal suffix"; "recover ms"; "cold rebuild ms" ]
    [ [ Util.fint w; Util.fms rec_ms; Util.fms cold ] ];
  if rec_ms > cold then begin
    Printf.printf
      "FAIL: recovery (%.2f ms) slower than the cold rebuild (%.2f ms)\n"
      rec_ms cold;
    exit 1
  end;
  Util.note "gate passed: %.1fx faster than the cold rebuild" (cold /. rec_ms)
