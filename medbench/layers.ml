(* Per-layer accounting for the traced run. Every workload fills the
   parts of one accumulator that its operations reach; [metrics] turns it
   into the same list of named metrics for every workload, so a layer a
   workload bypasses reads 0 there. Each metric's comment names the
   end-to-end metric and workload it should move (see README.md). *)

open Kind
open Common

type t = {
  s5_ms : Stats.series;
  mutable s5_sources : int;
  mutable s5_tuples : int;
  mutable wrapper_requests : int;
  mutable wrapper_tuples : int;
  hit_ms : Stats.series;
  miss_ms : Stats.series;
  mutable updates : int;
  mutable invalidated : int;
  update_ms : Stats.series;  (** the update call minus its storage I/O spans *)
  remote_ms : Stats.series;  (** Protocol.update_remote, whole call *)
  mutable strata : int;
  mutable recomputed : int;
  mutable skipped : int;
  mutable scanned : int;
  mutable derived : int;
  mutable delta_facts : int;
  mutable update_msg_bytes : int;
  mutable io_before : Fsmeter.t option;
  mutable io_after : Fsmeter.t option;
  recover_ms : Stats.series;
  mutable snapshot_read_ms : float;
  mutable wal_replay_ms : float;
  mutable facts : int;
  mutable program_ms : float;
  mutable compile_ms : float;
  mutable runtime : Mediation.Runtime.totals option;
}

let create () =
  {
    s5_ms = Stats.series ();
    s5_sources = 0;
    s5_tuples = 0;
    wrapper_requests = 0;
    wrapper_tuples = 0;
    hit_ms = Stats.series ();
    miss_ms = Stats.series ();
    updates = 0;
    invalidated = 0;
    update_ms = Stats.series ();
    remote_ms = Stats.series ();
    strata = 0;
    recomputed = 0;
    skipped = 0;
    scanned = 0;
    derived = 0;
    delta_facts = 0;
    update_msg_bytes = 0;
    io_before = None;
    io_after = None;
    recover_ms = Stats.series ();
    snapshot_read_ms = 0.0;
    wal_replay_ms = 0.0;
    facts = 0;
    program_ms = 0.0;
    compile_ms = 0.0;
    runtime = None;
  }

let record_maintenance l ~delta_facts (r : Datalog.Maintain.report) =
  l.strata <- l.strata + r.Datalog.Maintain.strata;
  l.recomputed <- l.recomputed + r.Datalog.Maintain.recomputed;
  l.skipped <- l.skipped + r.Datalog.Maintain.skipped;
  l.scanned <- l.scanned + r.Datalog.Maintain.tuples_scanned;
  l.derived <- l.derived + r.Datalog.Maintain.added + r.Datalog.Maintain.removed;
  l.delta_facts <- l.delta_facts + delta_facts

let record_query l ~ms ~hit = Stats.add (if hit then l.hit_ms else l.miss_ms) ms

(* One-shot rebuild layers on the final federation: program assembly,
   compilation, database size and the fault runtime's lifetime totals. *)
let record_rebuild_layers l med =
  let t0 = Trace.now () in
  let p = Trace.span "flogic.program" (fun () -> Mediator.program med) in
  l.program_ms <- Trace.ms_since t0;
  let t1 = Trace.now () in
  ignore (Trace.span "flogic.compile" (fun () -> Flogic.Fl_program.compile p));
  l.compile_ms <- Trace.ms_since t1;
  l.facts <- Datalog.Database.cardinal (Mediator.materialize med);
  l.runtime <- Some (Mediation.Runtime.totals (Mediator.runtime med))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per a n = if n = 0 then 0.0 else float_of_int a /. float_of_int n

let metrics l ~spans ~overhead_pct =
  let tot = Trace.totals spans in
  let io =
    match (l.io_before, l.io_after) with
    | Some a, Some b -> Fsmeter.diff b a
    | _ -> Fsmeter.create ()
  in
  let n_s5 = l.s5_ms.Stats.n in
  let rt f = match l.runtime with Some t -> float_of_int (f t) | None -> 0.0 in
  let coverage = Trace.coverage spans in
  [
    (* Section 5 -> lead_p50_ms on s5-read *)
    metric "section5.query_ms" "ms" (Stats.mean l.s5_ms);
    metric "section5.sources_contacted" "count" (per l.s5_sources n_s5);
    metric "section5.tuples_moved" "count" (per l.s5_tuples n_s5);
    metric "wrapper.requests" "count" (per l.wrapper_requests n_s5);
    metric "wrapper.tuples_shipped" "count" (per l.wrapper_tuples n_s5);
    (* mediator and query cache -> flq_p50_ms, ops_per_s on s5-read and live-update *)
    metric "mediator.query_hit_ms" "ms" (Stats.mean l.hit_ms);
    metric "mediator.query_miss_ms" "ms" (Stats.mean l.miss_ms);
    metric "mediator.cache_hit_ratio" "ratio" (ratio l.hit_ms.Stats.n (l.hit_ms.Stats.n + l.miss_ms.Stats.n));
    metric "mediator.invalidated_per_update" "count" (per l.invalidated l.updates);
    (* maintenance -> lead_p50_ms on live-update *)
    metric "mediator.update_ms" "ms" (Stats.mean l.update_ms);
    metric "maintain.recomputed_per_update" "count" (per l.recomputed l.updates);
    metric "maintain.skipped_ratio" "ratio" (ratio l.skipped l.strata);
    metric "maintain.scanned_per_delta_fact" "ratio" (ratio l.scanned l.delta_facts);
    metric "maintain.derived_per_delta_fact" "ratio" (ratio l.derived l.delta_facts);
    (* wire -> lead_p50_ms on live-update; register_xml -> setup_s on s5-read *)
    metric "xmlkit.print_ms" "ms" (Trace.mean_ms tot "xmlkit.print");
    metric "xmlkit.parse_ms" "ms" (Trace.mean_ms tot "xmlkit.parse");
    metric "protocol.update_remote_ms" "ms" (Stats.mean l.remote_ms);
    metric "protocol.wire_bytes" "B" (per l.update_msg_bytes l.updates);
    metric "cm_plugins.register_xml_ms" "ms" (Trace.mean_ms tot "cm_plugins.register_xml");
    (* storage -> lead_tail_ms on live-update *)
    metric "codec.bytes_per_update" "B" (per io.bytes l.updates);
    metric "codec.flushes_per_update" "count" (per io.flushes l.updates);
    metric "codec.flush_ms" "ms" (if io.flushes = 0 then 0.0 else io.flush_ms /. float_of_int io.flushes);
    metric "codec.renames_per_update" "count" (per io.renames l.updates);
    metric "storage.write_amp" "ratio" (ratio io.bytes l.update_msg_bytes);
    metric "snapshot.checkpoints_per_update" "count" (per io.checkpoints l.updates);
    (* recovery -> the recovery epilogue of live-update *)
    metric "snapshot.read_ms" "ms" l.snapshot_read_ms;
    metric "wal.replay_ms" "ms" l.wal_replay_ms;
    metric "mediator.recover_ms" "ms" (Stats.median l.recover_ms);
    (* rebuild -> setup_s on s5-read, lead_p50_ms on rebuild-churn;
       the fault runtime -> lead_tail_ms on rebuild-churn *)
    metric "mediator.materialize_ms" "ms" (Trace.mean_ms tot "mediator.materialize");
    metric "engine.facts" "count" (float_of_int l.facts);
    metric "flogic.program_ms" "ms" l.program_ms;
    metric "flogic.compile_ms" "ms" l.compile_ms;
    metric "runtime.calls" "count" (rt (fun t -> t.Mediation.Runtime.total_calls));
    metric "runtime.retries" "count" (rt (fun t -> t.Mediation.Runtime.total_retries));
    metric "runtime.failures" "count" (rt (fun t -> t.Mediation.Runtime.total_failures));
    metric "runtime.trips" "count" (rt (fun t -> t.Mediation.Runtime.total_trips));
    (* the trace itself *)
    metric "trace.overhead_pct" "%" overhead_pct;
    metric "trace.coverage_min" "ratio"
      (List.fold_left (fun acc (_, c) -> Float.min acc c) 1.0 coverage);
  ]
