module Atom = Logic.Atom
module Rule = Logic.Rule
module Literal = Logic.Literal
module SS = Set.Make (String)

type delta = { additions : Atom.t list; deletions : Atom.t list }

let delta ?(additions = []) ?(deletions = []) () = { additions; deletions }

let delta_is_empty d = d.additions = [] && d.deletions = []

type action = Skipped | Propagated | Recomputed

type stratum_report = {
  stratum : int;
  action : action;
  delta_in : int;
  added : int;
  removed : int;
  rounds : int;
}

type report = {
  added : int;
  removed : int;
  rounds : int;
  strata : int;
  skipped : int;
  recomputed : int;
  skolems_suppressed : int;
  joins : int;
  tuples_scanned : int;
  index_hits : int;
  plan_cache_hits : int;
  touched : string list;
  per_stratum : stratum_report list;
}

type t = {
  max_term_depth : int;
  max_rounds : int;
  compiled : bool;
  mutable rules : Rule.t list;
  mutable strata : Rule.t list list;
  mutable idb : SS.t;
  edb : Database.t;
  db : Database.t;
}

(* The derive entry used by every maintenance join: compiled plans by
   default, the interpreted oracle when the handle was built with
   [~compiled:false]. *)
let derive t ?stats ~db ~neg ?focus r =
  if t.compiled then Plan.derive ?stats ~db ~neg ?focus r
  else Eval.derive ?stats ~db ~neg ?focus r

let db t = t.db
let edb t = t.edb
let rules t = t.rules

let idb_of rules =
  List.fold_left (fun s r -> SS.add (Rule.head_pred r) s) SS.empty rules

let unstratified_msg cycle =
  Printf.sprintf "not stratified (nonmonotonic cycle through %s)"
    (String.concat ", " cycle)

(* Warm the join indexes the maintenance passes will need: a body
   literal's position gets looked up by key whenever its variable is
   bound by another body literal (semi-naive focus joins) or by the
   head (goal-directed re-derivation in DRed). Bulk materialization
   rarely binds every such position, so without this the first delta
   pays for building an index over the whole extent. *)
let warm_indexes db rules =
  List.iter
    (fun (r : Rule.t) ->
      let body_atoms =
        List.filter_map
          (function
            | Literal.Pos (a : Atom.t) when not (Literal.is_builtin a.Atom.pred)
              ->
              Some a
            | _ -> None)
          r.Rule.body
      in
      List.iteri
        (fun i (a : Atom.t) ->
          let bound_elsewhere =
            Atom.vars r.Rule.head
            @ List.concat
                (List.mapi
                   (fun j (b : Atom.t) -> if j = i then [] else Atom.vars b)
                   body_atoms)
          in
          match Database.relation_opt db a.Atom.pred with
          | None -> ()
          | Some rel ->
            List.iteri
              (fun pos arg ->
                match arg with
                | Logic.Term.Var x when List.mem x bound_elsewhere ->
                  Relation.warm_index rel ~pos
                | _ -> ())
              a.Atom.args)
        body_atoms)
    rules

let init ?(max_term_depth = 8) ?(max_rounds = 100_000) ?(compiled = true) ?prune
    p edb0 =
  let facts, p' = Program.split_facts p in
  match Stratify.rules_by_stratum p' with
  | Error cycle -> Error ("Maintain.init: " ^ unstratified_msg cycle)
  | Ok strata ->
    let edb = Database.copy edb0 in
    List.iter (fun f -> ignore (Database.add_fact edb f)) facts;
    let db = Database.copy edb in
    (* Dead-rule pruning applies to the initial materialization only:
       the handle keeps the full rule set, because a later delta can
       revive a rule that is dead w.r.t. the current base (every
       instantiation of a revived rule contains a delta fact, so the
       semi-naive focus joins of [apply] derive it). *)
    let keep =
      match prune with
      | None -> fun _ -> true
      | Some f ->
        let kept = f (Program.rules p') db in
        fun r -> List.exists (Rule.equal r) kept
    in
    let stats = Eval.new_stats () in
    List.iter
      (fun rs ->
        let rs = List.filter keep rs in
        if rs <> [] then
          ignore
            (Seminaive.run ~stats ~compiled ~max_term_depth ~max_rounds
               ~neg:db rs db))
      strata;
    let rules = Program.rules p' in
    warm_indexes db rules;
    Ok
      {
        max_term_depth;
        max_rounds;
        compiled;
        rules;
        strata;
        idb = idb_of rules;
        edb;
        db;
      }

let of_materialized ?(max_term_depth = 8) ?(max_rounds = 100_000)
    ?(compiled = true) ?edb:edb0 ?(prewarm = true) p db =
  let facts, p' = Program.split_facts p in
  match Stratify.rules_by_stratum p' with
  | Error cycle -> Error ("Maintain.of_materialized: " ^ unstratified_msg cycle)
  | Ok strata ->
    let rules = Program.rules p' in
    let idb = idb_of rules in
    (* With an explicit base database (a checkpoint's): adopt it as-is.
       Without one, reconstruct the base from the non-IDB extents —
       sound only when base facts never share a predicate with a rule
       head, which recovery cannot assume (the mediator asserts source
       data on predicates its anchor rules also derive into). *)
    let edb =
      match edb0 with
      | Some e -> Database.copy e
      | None ->
        let edb = Database.create () in
        List.iter
          (fun pred ->
            if not (SS.mem pred idb) then
              List.iter
                (fun f -> ignore (Database.add_fact edb f))
                (Database.facts db pred))
          (Database.predicates db);
        edb
    in
    List.iter (fun f -> ignore (Database.add_fact edb f)) facts;
    if prewarm then warm_indexes db rules;
    Ok
      { max_term_depth; max_rounds; compiled; rules; strata; idb; edb; db }

let too_deep t (a : Atom.t) =
  List.exists (fun x -> Logic.Term.depth x > t.max_term_depth) a.Atom.args

(* Rules [r] rewritten to focus on a changed predicate it reads under
   negation: one per [not p(u)] literal with [changed p], as
   [head :- p(u), body] with the focus literal at position 0. With
   [~drop_neg] every negation of the body goes, so the rewrite matches a
   superset of the instances that held before the batch (the seeds of
   over-deletion); without it the negations stay and read the current
   model (the seeds of insertion). *)
let neg_focus ~drop_neg changed rs =
  List.concat_map
    (fun (r : Rule.t) ->
      let body =
        if drop_neg then
          List.filter (function Literal.Neg _ -> false | _ -> true) r.Rule.body
        else r.Rule.body
      in
      List.filter_map
        (function
          | Literal.Neg a when changed a.Atom.pred ->
            Some (Rule.make r.Rule.head (Literal.Pos a :: body))
          | _ -> None)
        r.Rule.body)
    rs

(* One stratum, propagate path, deletion side: delete-and-rederive
   (DRed). Facts already removed globally are restored for the duration
   of the over-deletion fixpoint so rule bodies join against the
   pre-deletion extents; candidates asserted in the base are immune.
   [blocked] are {!neg_focus} rewrites (negations dropped) for negated
   predicates that gained facts: read against [added_db], they seed the
   over-deletion with the heads a new fact may have blocked.
   [explicit] holds base-level retractions of this stratum's own head
   predicates: they join the re-derivation pool (a retracted base fact
   survives when rules still prove it) and [unremove] is called on the
   survivors so downstream strata stop treating them as deleted. *)
let dred_stratum t stats rs ~removed_db ~added_db ~blocked ~explicit ~unremove
    ~note_removed =
  let restored =
    List.filter (fun f -> Database.add_fact t.db f) (Database.all_facts removed_db)
  in
  let overdel = Database.create () in
  let rounds = ref 0 in
  let mark next a =
    if
      Database.mem t.db a
      && (not (Database.mem t.edb a))
      && not (Database.mem overdel a)
    then begin
      ignore (Database.add_fact overdel a);
      ignore (Database.add_fact next a)
    end
  in
  let rec over d =
    if Database.cardinal d = 0 then ()
    else begin
      incr rounds;
      if !rounds > t.max_rounds then
        raise
          (Eval.Diverged
             (Printf.sprintf "over-deletion ran past %d rounds" t.max_rounds));
      let next = Database.create () in
      List.iter
        (fun r ->
          List.iter
            (fun i ->
              List.iter (mark next)
                (derive t ~stats ~db:t.db ~neg:t.db ~focus:(i, d) r))
            (Eval.positive_positions r))
        rs;
      over next
    end
  in
  let seeds = Database.create () in
  List.iter
    (fun r ->
      List.iter (mark seeds)
        (derive t ~stats ~db:t.db ~neg:t.db ~focus:(0, added_db) r))
    blocked;
  over removed_db;
  over seeds;
  List.iter (fun f -> ignore (Database.remove_fact t.db f)) restored;
  let candidates = Database.all_facts overdel in
  List.iter (fun f -> ignore (Database.remove_fact t.db f)) candidates;
  (* Re-derive survivors goal-directedly: a candidate stays deleted only
     if no rule instance proves it from the remaining database. *)
  let provable (a : Atom.t) =
    List.exists
      (fun (r : Rule.t) ->
        String.equal (Rule.head_pred r) a.Atom.pred
        &&
        match Logic.Unify.matches_list ~patterns:r.Rule.head.Atom.args a.Atom.args with
        | None -> false
        | Some s ->
          let body = List.map (Literal.apply s) r.Rule.body in
          Eval.solve_body ~stats ~db:t.db ~neg:t.db body <> [])
      rs
  in
  let pool =
    candidates
    @ List.filter (fun (a : Atom.t) -> not (Database.mem overdel a)) explicit
  in
  let rec rederive () =
    let progress = ref false in
    List.iter
      (fun a ->
        if (not (Database.mem t.db a)) && provable a then begin
          ignore (Database.add_fact t.db a);
          progress := true
        end)
      pool;
    if !progress then rederive ()
  in
  rederive ();
  List.iter
    (fun f ->
      if (not (Database.mem t.db f)) && not (Database.mem removed_db f) then
        note_removed f)
    candidates;
  List.iter (fun f -> if Database.mem t.db f then unremove f) explicit;
  !rounds

(* A stratum's stored body predicates by polarity: read positively,
   under negation, or inside an aggregate (builtins have no extent). *)
let polarity rs =
  let stored (a : Atom.t) = not (Literal.is_builtin a.Atom.pred) in
  List.fold_left
    (fun acc (r : Rule.t) ->
      List.fold_left
        (fun (pos, neg, agg) -> function
          | Literal.Pos a when stored a -> (SS.add a.Atom.pred pos, neg, agg)
          | Literal.Neg a when stored a -> (pos, SS.add a.Atom.pred neg, agg)
          | Literal.Agg ag ->
            ( pos,
              neg,
              List.fold_left
                (fun s (a : Atom.t) -> SS.add a.Atom.pred s)
                agg ag.Literal.body )
          | _ -> (pos, neg, agg))
        acc r.Rule.body)
    (SS.empty, SS.empty, SS.empty) rs

(* The shared stratum walk behind [apply] and [extend_rules].
   Precondition: [t.strata]/[t.idb] already reflect [new_rules], and the
   EDB delta has been validated. *)
let run_maintenance t ~new_rules ~additions ~deletions =
  let stats = Eval.new_stats () in
  let skolems = ref 0 in
  let added_db = Database.create () in
  let removed_db = Database.create () in
  let changed = ref SS.empty in
  let note_changed p = changed := SS.add p !changed in
  (* Base delta: deletions first, then insertions (a fact listed in
     both ends up present). Extensional predicates settle here; a
     retracted base fact of a {e derived} predicate is only
     provisionally removed — its defining stratum re-derives it below
     if the rules still prove it. *)
  List.iter
    (fun f ->
      if Database.remove_fact t.edb f then begin
        ignore (Database.remove_fact t.db f);
        ignore (Database.add_fact removed_db f);
        note_changed f.Atom.pred
      end)
    deletions;
  List.iter
    (fun f ->
      if Database.add_fact t.edb f then begin
        ignore (Database.add_fact t.db f);
        ignore (Database.add_fact added_db f);
        note_changed f.Atom.pred
      end)
    additions;
  let is_new r = List.exists (Rule.equal r) new_rules in
  let per_stratum = ref [] in
  let total_rounds = ref 0 in
  List.iteri
    (fun si rs ->
      if rs <> [] then begin
        let delta_in = Database.cardinal added_db + Database.cardinal removed_db in
        let heads =
          List.fold_left (fun s r -> SS.add (Rule.head_pred r) s) SS.empty rs
        in
        let pos, neg, agg = polarity rs in
        let touched s = not (SS.disjoint s !changed) in
        let has_new = new_rules <> [] && List.exists is_new rs in
        let s_added = ref 0 and s_removed = ref 0 and s_rounds = ref 0 in
        let note_added (a : Atom.t) =
          ignore (Database.add_fact added_db a);
          note_changed a.Atom.pred;
          incr s_added
        in
        let note_removed (a : Atom.t) =
          ignore (Database.add_fact removed_db a);
          note_changed a.Atom.pred;
          incr s_removed
        in
        (* base retractions of this stratum's own heads: even when no
           body dependency changed, the stratum must get a chance to
           re-derive them. *)
        let explicit_rm =
          List.filter
            (fun (a : Atom.t) -> SS.mem a.Atom.pred heads)
            (Database.all_facts removed_db)
        in
        let action =
          if
            (not (touched pos)) && (not (touched neg)) && (not (touched agg))
            && (not has_new) && explicit_rm = []
          then Skipped
          else if touched agg then begin
            (* An aggregated input saw its extent change: rebuild just
               this stratum from the (already-maintained) strata below
               it. *)
            let old_facts =
              SS.fold (fun h acc -> Database.facts t.db h @ acc) heads []
            in
            List.iter (fun f -> ignore (Database.remove_fact t.db f)) old_facts;
            SS.iter
              (fun h ->
                List.iter
                  (fun f -> ignore (Database.add_fact t.db f))
                  (Database.facts t.edb h))
              heads;
            let o =
              Seminaive.run ~stats ~compiled:t.compiled
                ~max_term_depth:t.max_term_depth ~max_rounds:t.max_rounds
                ~neg:t.db rs t.db
            in
            skolems := !skolems + o.Seminaive.skolems_suppressed;
            s_rounds := o.Seminaive.rounds;
            let old_set = Database.of_facts old_facts in
            List.iter
              (fun f -> if not (Database.mem t.db f) then note_removed f)
              old_facts;
            SS.iter
              (fun h ->
                List.iter
                  (fun f -> if not (Database.mem old_set f) then note_added f)
                  (Database.facts t.db h))
              heads;
            List.iter
              (fun (a : Atom.t) ->
                if Database.mem t.db a then
                  ignore (Database.remove_fact removed_db a))
              explicit_rm;
            Recomputed
          end
          else begin
            (* Propagate by polarity. A negated input is final here
               (stratification): a fact it gains can only block rule
               instances, a fact it loses only unblock them. So DRed
               runs when a positive input lost facts, the stratum's own
               base facts were retracted or a negated input gained
               facts; then new-rule seeding; then the instances a
               negated deletion unblocked; then semi-naive insertion
               propagation focused on the accumulated delta. *)
            let gained db s = SS.exists (fun p -> Database.count db p > 0) s in
            let blocked =
              neg_focus ~drop_neg:true (fun p -> Database.count added_db p > 0) rs
            in
            if gained removed_db pos || explicit_rm <> [] || blocked <> []
            then begin
              let unremove (a : Atom.t) =
                ignore (Database.remove_fact removed_db a)
              in
              s_rounds :=
                !s_rounds
                + dred_stratum t stats rs ~removed_db ~added_db ~blocked
                    ~explicit:explicit_rm ~unremove ~note_removed
            end;
            let absorb a =
              if too_deep t a then incr skolems
              else if Database.add_fact t.db a then note_added a
            in
            if has_new then
              List.iter
                (fun r ->
                  if is_new r then
                    List.iter absorb (derive t ~stats ~db:t.db ~neg:t.db r))
                rs;
            List.iter
              (fun r ->
                List.iter absorb
                  (derive t ~stats ~db:t.db ~neg:t.db ~focus:(0, removed_db) r))
              (neg_focus ~drop_neg:false
                 (fun p -> Database.count removed_db p > 0)
                 rs);
            if gained added_db pos then begin
              let rec prop rounds d =
                if Database.cardinal d = 0 then rounds
                else begin
                  if rounds > t.max_rounds then
                    raise
                      (Eval.Diverged
                         (Printf.sprintf "propagation ran past %d rounds"
                            t.max_rounds));
                  let next = Database.create () in
                  List.iter
                    (fun r ->
                      List.iter
                        (fun i ->
                          List.iter
                            (fun a ->
                              if too_deep t a then incr skolems
                              else if Database.add_fact t.db a then begin
                                ignore (Database.add_fact next a);
                                note_added a
                              end)
                            (derive t ~stats ~db:t.db ~neg:t.db ~focus:(i, d) r))
                        (Eval.positive_positions r))
                    rs;
                  prop (rounds + 1) next
                end
              in
              s_rounds := !s_rounds + prop 0 (Database.copy added_db)
            end;
            Propagated
          end
        in
        total_rounds := !total_rounds + !s_rounds;
        per_stratum :=
          {
            stratum = si;
            action;
            delta_in;
            added = !s_added;
            removed = !s_removed;
            rounds = !s_rounds;
          }
          :: !per_stratum
      end)
    t.strata;
  let per_stratum = List.rev !per_stratum in
  let count a = List.length (List.filter (fun s -> s.action = a) per_stratum) in
  {
    added = Database.cardinal added_db;
    removed = Database.cardinal removed_db;
    rounds = !total_rounds;
    strata = List.length per_stratum;
    skipped = count Skipped;
    recomputed = count Recomputed;
    skolems_suppressed = !skolems;
    joins = stats.Eval.joins;
    tuples_scanned = stats.Eval.tuples_scanned;
    index_hits = stats.Eval.index_hits;
    plan_cache_hits = stats.Eval.plan_cache_hits;
    touched = SS.elements !changed;
    per_stratum;
  }

let validate_delta atoms =
  let rec check = function
    | [] -> Ok ()
    | (a : Atom.t) :: rest ->
      if not (Atom.is_ground a) then
        Error
          (Printf.sprintf "Maintain: delta fact %s is not ground"
             (Atom.to_string a))
      else check rest
  in
  check atoms

let apply t d =
  match validate_delta (d.additions @ d.deletions) with
  | Error e -> Error e
  | Ok () ->
    Ok
      (run_maintenance t ~new_rules:[] ~additions:d.additions
         ~deletions:d.deletions)

let extend_rules t ?(delta = { additions = []; deletions = [] }) new_rules =
  if new_rules = [] then apply t delta
  else
    match Program.make (t.rules @ new_rules) with
    | Error e -> Error e
    | Ok p -> (
      match Stratify.rules_by_stratum p with
      | Error cycle -> Error ("Maintain.extend_rules: " ^ unstratified_msg cycle)
      | Ok strata -> (
        let rules = Program.rules p in
        let idb = idb_of rules in
        match validate_delta (delta.additions @ delta.deletions) with
        | Error e -> Error e
        | Ok () ->
          t.rules <- rules;
          t.strata <- strata;
          t.idb <- idb;
          warm_indexes t.db new_rules;
          Ok
            (run_maintenance t ~new_rules ~additions:delta.additions
               ~deletions:delta.deletions)))
