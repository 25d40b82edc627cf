module Atom = Logic.Atom
module Rule = Logic.Rule

type outcome = { rounds : int; derived : int; skolems_suppressed : int }

let too_deep max_term_depth (a : Atom.t) =
  List.exists (fun t -> Logic.Term.depth t > max_term_depth) a.Atom.args

let diverged max_rounds =
  raise
    (Eval.Diverged
       (Printf.sprintf "no fixpoint after %d semi-naive rounds" max_rounds))

(* Interpreted path: the differential-testing oracle. Heads come back
   as atoms and are re-packed by [Database.add_fact]. *)
let run_interpreted ?stats ~max_term_depth ~max_rounds ~neg rules db =
  let derived = ref 0 in
  let suppressed = ref 0 in
  let absorb ~into heads =
    List.iter
      (fun a ->
        if too_deep max_term_depth a then incr suppressed
        else if Database.add_fact db a then begin
          incr derived;
          ignore (Database.add_fact into a)
        end)
      heads
  in
  (* Round 1: full evaluation to seed the delta. Rules whose bodies read
     only extensional predicates fire here and never again. *)
  let delta0 = Database.create () in
  List.iter (fun r -> absorb ~into:delta0 (Eval.derive ?stats ~db ~neg r)) rules;
  let rec loop rounds delta =
    if Database.cardinal delta = 0 then rounds
    else begin
      if rounds >= max_rounds then diverged max_rounds;
      let next = Database.create () in
      List.iter
        (fun r ->
          List.iter
            (fun i ->
              absorb ~into:next
                (Eval.derive ?stats ~db ~neg ~focus:(i, delta) r))
            (Eval.positive_positions r))
        rules;
      loop (rounds + 1) next
    end
  in
  let rounds = loop 1 delta0 in
  { rounds; derived = !derived; skolems_suppressed = !suppressed }

(* Compiled path: rule bodies run through cached {!Plan}s and heads
   arrive as packed rows with their intern ids already cached, so
   absorbing a row into the model re-interns nothing. Rows are buffered
   per derive call (never streamed), so a rule scanning its own head
   predicate cannot observe a relation mutating under its iteration.

   Each round's delta is a per-predicate list of rows, not a database:
   a row enters the delta exactly when its insertion into the model
   succeeded, so the delta needs no deduplication of its own — and the
   focus scan is a full scan either way (see [Plan]), so losing the
   hash set costs nothing. *)
let run_compiled ?stats ~max_term_depth ~max_rounds ~neg rules db =
  let derived = ref 0 in
  let suppressed = ref 0 in
  let absorb ~(into : (string, Tuple.Packed.t list ref) Hashtbl.t) pred rel
      (rows, supp) =
    suppressed := !suppressed + supp;
    let fresh =
      List.filter
        (fun row ->
          if Relation.add_packed rel row then begin
            incr derived;
            true
          end
          else false)
        rows
    in
    (* only touch the delta table when something was new: an
       all-duplicate batch must not leave an empty bucket behind (the
       round loop treats a non-empty table as "one more round") *)
    if fresh <> [] then begin
      let bucket =
        match Hashtbl.find_opt into pred with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.add into pred b;
          b
      in
      bucket := List.rev_append fresh !bucket
    end
  in
  let run_plan ?delta_rows plan =
    Plan.run_rows ?stats ~max_term_depth ~db ~neg ?delta_rows plan
  in
  (* Resolve plans and head relations once up front — the round loop
     must not pay the plan-cache lookup (which hashes the whole rule)
     or the predicate-name lookup per rule per round. *)
  let head_rel r = Database.relation db (Rule.head_pred r) in
  let seed_plans =
    List.map
      (fun r -> (Rule.head_pred r, head_rel r, Plan.lookup ?stats r ~focus:None))
      rules
  in
  let delta_plans =
    List.concat_map
      (fun r ->
        List.map
          (fun i ->
            let plan = Plan.lookup ?stats r ~focus:(Some i) in
            (* self-reading plans are buffered, not streamed: streamed
               emissions would be visible to the plan's own later
               probes, moving derivations a round earlier and so
               changing the round count *)
            let stream_ok =
              Plan.streamable plan && not (Plan.reads_own_head plan)
            in
            ( Rule.head_pred r,
              head_rel r,
              Plan.focus_pred plan,
              stream_ok,
              plan ))
          (Eval.positive_positions r))
      rules
  in
  let delta0 = Hashtbl.create 16 in
  List.iter
    (fun (pred, rel, plan) -> absorb ~into:delta0 pred rel (run_plan plan))
    seed_plans;
  let rec loop rounds delta =
    if Hashtbl.length delta = 0 then rounds
    else begin
      if rounds >= max_rounds then diverged max_rounds;
      let next = Hashtbl.create 16 in
      List.iter
        (fun (pred, rel, focus_pred, stream_ok, plan) ->
          let rows =
            match focus_pred with
            | None -> Some []
            | Some fp -> (
              match Hashtbl.find_opt delta fp with
              | Some b -> Some !b
              | None -> None)
          in
          (* no delta rows for the focus predicate: the plan cannot
             fire this round, skip the execution outright *)
          match rows with
          | None -> ()
          | Some delta_rows ->
            if stream_ok then begin
              (* stream rows into the model as they are derived — no
                 intermediate buffer; the bucket is resolved on the
                 first genuinely new row so all-duplicate executions
                 leave the delta table untouched *)
              let bucket = ref None in
              let supp =
                Plan.run_stream ?stats ~max_term_depth ~db ~neg ~delta_rows
                  plan ~emit:(fun row ->
                    if Relation.add_packed rel row then begin
                      incr derived;
                      let b =
                        match !bucket with
                        | Some b -> b
                        | None ->
                          let b =
                            match Hashtbl.find_opt next pred with
                            | Some b -> b
                            | None ->
                              let b = ref [] in
                              Hashtbl.add next pred b;
                              b
                          in
                          bucket := Some b;
                          b
                      in
                      b := row :: !b
                    end)
              in
              suppressed := !suppressed + supp
            end
            else absorb ~into:next pred rel (run_plan ~delta_rows plan))
        delta_plans;
      loop (rounds + 1) next
    end
  in
  let rounds = loop 1 delta0 in
  { rounds; derived = !derived; skolems_suppressed = !suppressed }

let run ?stats ?(compiled = true) ?(max_term_depth = 8)
    ?(max_rounds = 100_000) ~neg rules db =
  if compiled then
    run_compiled ?stats ~max_term_depth ~max_rounds ~neg rules db
  else run_interpreted ?stats ~max_term_depth ~max_rounds ~neg rules db
