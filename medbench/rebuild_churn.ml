(* rebuild-churn: updates that invalidate, queries that rebuild.

   The default configuration (assertion mode, no maintenance handle) at
   scale 20, with a seeded transient-fault plan on NCMIR's channel that
   never fails two calls in a row, so the runtime's retries always
   absorb it. The client alternates Mediator.update_source with a query
   on the updated class: every update drops the materialization, and the
   next query pays the full regather through the fault runtime, the
   program build, the compile and the well-founded evaluation. *)

open Kind
open Common

let scale = 20
let faulty = "NCMIR"
let live_cap = 4

(* The call ordinals the fault script covers: far beyond what a run
   makes (about 800 calls over all channels in 30 s on a 2-core x86-64
   host), and the epilogue fails a run that reaches it, so a faster
   rebuild never runs into a fault-free tail. *)
let plan_horizon = 20_000

(* Faults pinned to call ordinals: transients and timeouts, never on two
   consecutive calls, plus some delays. *)
let fault_plan ~seed =
  let rng = Random.State.make [| seed; 31 |] in
  let events = ref [] and failed_last = ref false in
  for at = 1 to plan_horizon do
    let r = Random.State.int rng 100 in
    let fault =
      if (not !failed_last) && r < 25 then
        Some (if r < 15 then Wrapper.Fault.Transient "injected" else Wrapper.Fault.Timeout)
      else if r >= 90 then Some (Wrapper.Fault.Delay (r - 80))
      else None
    in
    failed_last := (match fault with Some (Wrapper.Fault.Delay _) | None -> false | Some _ -> true);
    Option.iter (fun fault -> events := { Wrapper.Fault.at; fault } :: !events) fault
  done;
  Wrapper.Fault.Script (List.rev !events)

let setup ~seed _k =
  let p = params ~seed ~scale in
  let med = Mediator.create Neuro.Anatom.full in
  List.iter (register_direct med)
    [ Neuro.Sources.synapse p; Neuro.Sources.ncmir p; Neuro.Sources.senselab p ];
  (match Mediator.set_fault_plan med ~source:faulty (fault_plan ~seed) with
  | Ok () -> ()
  | Error e -> failwith e);
  ignore (materialize med);
  med

let phase med ~seed ~seconds (l : ledger) (acc : Layers.t) =
  let g = generator ~seed ~tag:"churn" in
  let lead = Stats.series () and flq = Stats.series () in
  let cycle () =
    let u = next_update g ~cap:live_cap in
    let t0 = Trace.now () in
    let sent =
      attempt_ok l (fun () ->
          Trace.op "update" (fun () ->
              let invalidated = (Mediator.cache_stats med).Mediator.invalidated in
              let r =
                Trace.span "mediator.update_source" (fun () ->
                    Mediator.update_source med ~source:(lab_source u.lab) ~additions:u.adds
                      ~deletions:u.dels ())
              in
              Stats.add acc.Layers.update_ms (Trace.ms_since t0);
              acc.updates <- acc.updates + 1;
              acc.invalidated <-
                acc.invalidated + (Mediator.cache_stats med).Mediator.invalidated - invalidated;
              match r with
              | Ok None -> true
              | Ok (Some _) ->
                fail l "update_source maintained a materialization that should have been dropped";
                false
              | Error e ->
                fail l ("update_source: " ^ e);
                false))
    in
    if sent then
      attempt l (fun () ->
          Trace.op "flq" (fun () ->
              ignore (materialize med);
              let r, ms, hit = query_classified med (lab_query u.lab) in
              match r with
              | Error e -> fail l ("query: " ^ e)
              | Ok answers ->
                Stats.add flq ms;
                Stats.add lead (Trace.ms_since t0);
                Layers.record_query acc ~ms ~hit;
                check l (shows answers u)
                  (Printf.sprintf "rebuild after the update of %s does not show it" u.id);
                check l
                  ((Mediator.completeness med).Mediator.skipped = [])
                  "a source was skipped during the rebuild"))
  in
  (* each step is two client operations: the update and the query *)
  { loop = closed_loop ~seconds (fun _ -> cycle ()); ops_per_step = 2; lead; flq; notes = [] }

let epilogue med (l : ledger) _acc =
  let t = Mediation.Runtime.totals (Mediator.runtime med) in
  check l (t.Mediation.Runtime.total_failures > 0) "the fault plan never fired";
  check l
    (t.Mediation.Runtime.total_calls < plan_horizon)
    (Printf.sprintf "%d calls ran past the fault plan's %d" t.Mediation.Runtime.total_calls
       plan_horizon);
  [
    ( "runtime",
      Printf.sprintf "%d calls, %d failures, %d retries, %d trips" t.Mediation.Runtime.total_calls
        t.Mediation.Runtime.total_failures t.Mediation.Runtime.total_retries
        t.Mediation.Runtime.total_trips );
  ]

let workload =
  {
    Harness.name = "rebuild-churn";
    tails = (0.9, 0.9);
    config =
      [
        ("config", "default (assertion mode: every update invalidates), durability off");
        ("scales", Printf.sprintf "labs %d; transient-fault plan on %s" scale faulty);
        ("lead", "freshness: update_source sent until the rebuilt query shows it");
        ( "mix",
          Printf.sprintf
            "alternating update_source (at most %d live new observations per lab) and a query on the updated class: materialize, then query_text"
            live_cap );
      ];
    setup;
    mediator = Fun.id;
    phase;
    epilogue;
  }
