module Atom = Logic.Atom
module Literal = Logic.Literal
module Rule = Logic.Rule
module Subst = Logic.Subst
module Term = Logic.Term

type strategy = Naive | Seminaive

type durability = Store.durability = { fs : Codec.fs; wal_max_bytes : int }

let checkpoint_file = Store.checkpoint_file
let wal_file = Store.wal_file

type config = {
  strategy : strategy;
  max_term_depth : int;
  max_rounds : int;
  compiled_plans : bool;
  prune : (Logic.Rule.t list -> Database.t -> Logic.Rule.t list) option;
  durability : durability option;
}

let default_config =
  {
    strategy = Seminaive;
    max_term_depth = 8;
    max_rounds = 100_000;
    compiled_plans = true;
    prune = None;
    durability = None;
  }

exception Undefined_atoms of int

type report = {
  stratified : bool;
  strata : int;
  rounds : int;
  alternations : int;
  derived : int;
  skolems_suppressed : int;
  joins : int;
  tuples_scanned : int;
  index_hits : int;
  plan_cache_hits : int;
  strata_skipped : int;
  delta_facts : int;
  rules_pruned : int;
  checkpoint_ms : float;
  recovery_ms : float;
  wal_bytes : int;
}

let empty_report =
  {
    stratified = true;
    strata = 0;
    rounds = 0;
    alternations = 0;
    derived = 0;
    skolems_suppressed = 0;
    joins = 0;
    tuples_scanned = 0;
    index_hits = 0;
    plan_cache_hits = 0;
    strata_skipped = 0;
    delta_facts = 0;
    rules_pruned = 0;
    checkpoint_ms = 0.0;
    recovery_ms = 0.0;
    wal_bytes = 0;
  }

let run_stratum config stats rules db =
  match config.strategy with
  | Seminaive ->
    let o =
      Seminaive.run ~stats ~compiled:config.compiled_plans
        ~max_term_depth:config.max_term_depth ~max_rounds:config.max_rounds
        ~neg:db rules db
    in
    (o.Seminaive.rounds, o.Seminaive.derived, o.Seminaive.skolems_suppressed)
  | Naive ->
    let o =
      Naive.run ~stats ~max_term_depth:config.max_term_depth
        ~max_rounds:config.max_rounds ~neg:db rules db
    in
    (o.Naive.rounds, o.Naive.derived, o.Naive.skolems_suppressed)

(* The relaxation of a rule: its body without the negations of
   predicates in the head's component, and the atoms of those dropped
   negations. *)
let relax scc (r : Rule.t) =
  let own = scc (Rule.head_pred r) in
  List.partition_map
    (function
      | Literal.Neg a when scc a.Atom.pred = own -> Either.Right a
      | l -> Either.Left l)
    r.Rule.body

(* an aggregate reading the head's component: Γ is then not
   antimonotone, and the relaxation certifies nothing *)
let aggregates_inside scc (r : Rule.t) =
  let own = scc (Rule.head_pred r) in
  List.exists
    (function
      | Literal.Agg g ->
        List.exists (fun (a : Atom.t) -> scc a.Atom.pred = own) g.Literal.body
      | _ -> false)
    r.Rule.body

let fires = Atom.make "fires" []

type certified = {
  model : Database.t;
  rounds : int;
  alternations : int;
  skolems : int;
}

(* The well-founded model of an unstratified program from its stratified
   relaxation (DESIGN.md §9), stratum by stratum over [db], which it
   mutates. A stratum runs its rules with every negation inside a head's
   component dropped: that is Γ(∅) on the stratum, lower strata fixed.
   Then one compiled query per dropped [not a], the kept body plus [a],
   looks for a rule instance that fires with [a] true. None does: the
   result R is a fixpoint of Γ and the stratum's total model. One does:
   the alternating fixpoint of the stratum's own rules continues from R,
   over the lower strata plus the stratum's loaded facts ([load]).
   Raises [Undefined_atoms] with [undefined ()] when a stratum's model
   is not total. *)
let certify config stats (l : Stratify.layers) ~load ~undefined db =
  let rounds = ref 0 and alternations = ref 0 and skolems = ref 0 in
  let stratum db rules =
    let split = List.map (fun r -> (r, relax l.Stratify.scc r)) rules in
    let relaxed =
      List.map
        (fun (r, (kept, dropped)) ->
          if dropped = [] then r else Rule.make r.Rule.head kept)
        split
    in
    let n, _, s = run_stratum config stats relaxed db in
    rounds := !rounds + n;
    let fired (_, (kept, dropped)) =
      List.exists
        (fun a ->
          let check = Rule.make fires (kept @ [ Literal.Pos a ]) in
          Plan.run ~stats ~db ~neg:db (Plan.compile check ~focus:None) <> [])
        dropped
    in
    if not (List.exists fired split) then begin
      skolems := !skolems + s;
      db
    end
    else begin
      let heads = Hashtbl.create 16 in
      List.iter (fun r -> Hashtbl.replace heads (Rule.head_pred r) ()) rules;
      let own = Hashtbl.mem heads in
      let base = Database.copy ~keep:(fun q -> not (own q)) db in
      ignore (Database.merge_into ~dst:base (load own));
      let m =
        Wellfounded.alternate ~stats ~compiled:config.compiled_plans
          ~max_term_depth:config.max_term_depth ~max_rounds:config.max_rounds
          rules ~base (db, s)
      in
      alternations := !alternations + m.Wellfounded.alternations;
      if not (Wellfounded.is_total m) then raise (Undefined_atoms (undefined ()));
      skolems := !skolems + m.Wellfounded.skolems_suppressed;
      m.Wellfounded.true_facts
    end
  in
  let model =
    List.fold_left
      (fun db rules -> if rules = [] then db else stratum db rules)
      db l.Stratify.rules
  in
  { model; rounds = !rounds; alternations = !alternations; skolems = !skolems }

let materialize ?(config = default_config) ?report p edb =
  let stats = Eval.new_stats () in
  let durable = Store.resolve config.durability in
  let facts, p = Program.split_facts p in
  (* the base facts of the predicates [keep] accepts: the EDB plus the
     program's own facts *)
  let load keep =
    let db = Database.copy ~keep edb in
    List.iter
      (fun (f : Atom.t) -> if keep f.Atom.pred then ignore (Database.add_fact db f))
      facts;
    db
  in
  let db = load (fun _ -> true) in
  (* the base-fact database a checkpoint must carry so recovery can
     re-adopt the materialization for incremental maintenance *)
  let base = match durable with Some _ -> Some (Database.copy db) | None -> None in
  (* semantics-preserving dead-rule pruning: the hook sees the rule-only
     program and the loaded base facts, and must return a sublist of
     rules that derive nothing in the model (Analysis.Absint.prune). *)
  let p, pruned =
    match config.prune with
    | None -> (p, 0)
    | Some f ->
      let rules = Program.rules p in
      let kept = f rules db in
      (Program.make_exn kept, List.length rules - List.length kept)
  in
  let fill_report ~checkpoint_ms ~wal_bytes ~stratified ~strata
      ~rounds ~alternations ~derived ~skolems =
    match report with
    | None -> ()
    | Some r ->
      r :=
        {
          stratified;
          strata;
          rounds;
          alternations;
          derived;
          skolems_suppressed = skolems;
          joins = stats.Eval.joins;
          tuples_scanned = stats.Eval.tuples_scanned;
          index_hits = stats.Eval.index_hits;
          plan_cache_hits = stats.Eval.plan_cache_hits;
          strata_skipped = 0;
          delta_facts = 0;
          rules_pruned = pruned;
          checkpoint_ms;
          recovery_ms = 0.0;
          wal_bytes;
        }
  in
  let layers = Stratify.layers p in
  let strata = layers.Stratify.rules in
  if layers.Stratify.cyclic = [] then begin
    let rounds = ref 0 and derived = ref 0 and skolems = ref 0 in
    List.iter
      (fun rules ->
        if rules <> [] then begin
          let r, d, s = run_stratum config stats rules db in
          rounds := !rounds + r;
          derived := !derived + d;
          skolems := !skolems + s
        end)
      strata;
    let checkpoint_ms, wal_bytes =
      match (durable, base) with
      | Some d, Some base ->
        let t0 = Unix.gettimeofday () in
        ignore
          (Store.checkpoint d ~db ~edb:base
             ~counters:
               [
                 ("strata", float_of_int (List.length strata));
                 ("rounds", float_of_int !rounds);
                 ("derived", float_of_int !derived);
                 ("skolems_suppressed", float_of_int !skolems);
               ]
             ());
        ( (Unix.gettimeofday () -. t0) *. 1000.0,
          d.fs.Codec.size Store.wal_file )
      | _ -> (0.0, 0)
    in
    fill_report ~checkpoint_ms ~wal_bytes ~stratified:true
      ~strata:(List.length strata)
      ~rounds:!rounds ~alternations:0 ~derived:!derived ~skolems:!skolems;
    db
  end
  else begin
    let loaded = Database.cardinal db in
    let wellfounded () =
      Wellfounded.compute ~stats ~compiled:config.compiled_plans
        ~max_term_depth:config.max_term_depth ~max_rounds:config.max_rounds
        p (load (fun _ -> true))
    in
    let c =
      if List.exists (List.exists (aggregates_inside layers.Stratify.scc)) strata
      then begin
        let m = wellfounded () in
        let undef = Database.cardinal m.Wellfounded.undefined in
        if undef > 0 then raise (Undefined_atoms undef);
        {
          model = m.Wellfounded.true_facts;
          rounds = m.Wellfounded.alternations;
          alternations = m.Wellfounded.alternations;
          skolems = m.Wellfounded.skolems_suppressed;
        }
      end
      else
        (* a stratum that is not total: the count is the whole model's,
           whose higher strata inherit the undefined atoms *)
        certify config stats layers ~load
          ~undefined:(fun () ->
            Database.cardinal (wellfounded ()).Wellfounded.undefined)
          db
    in
    fill_report ~checkpoint_ms:0.0 ~wal_bytes:0 ~stratified:false
      ~strata:(List.length strata) ~rounds:c.rounds
      ~alternations:c.alternations
      ~derived:(Database.cardinal c.model - loaded)
      ~skolems:c.skolems;
    (* hand back a settled model: every index the evaluation built has
       replayed its insertion log, so the first query over a rebuild
       does not pay that backlog. The stratified branch is left lazy:
       there the replay mostly feeds indexes built for one round and
       never probed again. *)
    Database.settle c.model;
    (* The replay's index cells and the model's last rows are young
       and all survive: promote them here, or the next minor
       collection does it inside whichever query happens to fill the
       minor heap first, and that query's latency then depends on
       where the rebuild left the heap. *)
    Gc.minor ();
    c.model
  end

let maintain ?(config = default_config) ?report p db delta =
  match
    Maintain.of_materialized ~max_term_depth:config.max_term_depth
      ~max_rounds:config.max_rounds ~compiled:config.compiled_plans p db
  with
  | Error e -> Error e
  | Ok h -> (
    match Store.commit (Store.resolve config.durability) h delta with
    | Error e -> Error e
    | Ok { Store.report = rep; checkpoint_ms; wal_bytes; _ } ->
      (match report with
      | None -> ()
      | Some r ->
        r :=
          {
            empty_report with
            strata = rep.Maintain.strata;
            rounds = rep.Maintain.rounds;
            derived = rep.Maintain.added;
            skolems_suppressed = rep.Maintain.skolems_suppressed;
            joins = rep.Maintain.joins;
            tuples_scanned = rep.Maintain.tuples_scanned;
            index_hits = rep.Maintain.index_hits;
            plan_cache_hits = rep.Maintain.plan_cache_hits;
            strata_skipped = rep.Maintain.skipped;
            delta_facts = rep.Maintain.added + rep.Maintain.removed;
            checkpoint_ms;
            wal_bytes;
          });
      Ok rep)

let recover ?(config = default_config) ?report p =
  match Store.resolve config.durability with
  | None ->
    Error
      "Engine.recover: no durability configured (set config.durability or \
       KIND_DURABLE_DIR)"
  | Some d -> (
    let t0 = Unix.gettimeofday () in
    (* a one-shot handle: only the indexes the replayed delta probes
       get built *)
    let adopt ~edb db =
      Maintain.of_materialized ~max_term_depth:config.max_term_depth
        ~max_rounds:config.max_rounds ~compiled:config.compiled_plans ~edb
        ~prewarm:false p db
    in
    match Store.recover d ~adopt with
    | Error e -> Error ("Engine.recover: " ^ e)
    | Ok None -> Ok None
    | Ok (Some r) ->
      (match report with
      | None -> ()
      | Some rep ->
        let geti k =
          match List.assoc_opt k r.Store.counters with
          | Some v -> int_of_float v
          | None -> 0
        in
        rep :=
          {
            empty_report with
            strata = geti "strata";
            rounds = geti "rounds";
            derived = geti "derived";
            skolems_suppressed = geti "skolems_suppressed";
            delta_facts =
              (match r.Store.replayed with
              | Some (_, m) -> m.Maintain.added + m.Maintain.removed
              | None -> 0);
            recovery_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
            wal_bytes = d.fs.Codec.size Store.wal_file;
          });
      Ok (Some r.Store.db))

(* A query runs on the compiled kernel as a one-off rule whose head
   carries every variable the body binds, in first-occurrence order;
   each head row becomes one substitution. The plan is compiled per
   call and never enters the plan cache, which is keyed by rule and
   unbounded: every distinct query constant would add an entry. *)
let query ?stats db lits =
  let vars =
    List.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc x -> if List.mem x acc then acc else x :: acc)
          acc (Literal.binds l))
      [] lits
    |> List.rev
  in
  let r = Rule.make (Atom.make "query" (List.map Term.var vars)) lits in
  (match Rule.check_safety r with
  | Ok () -> ()
  | Error e -> invalid_arg e);
  (* A ground argument the term pool does not know is in no stored
     row, so its literal matches nothing. Answering here keeps the
     compiler from interning it: the pool never frees an entry. *)
  let unknown = function
    | Literal.Pos a when not (Literal.is_builtin a.Atom.pred) ->
      List.exists
        (fun t -> Term.is_ground t && Option.is_none (Term.find_id t))
        a.Atom.args
    | _ -> false
  in
  if List.exists unknown lits then []
  else
    Plan.run ?stats ~db ~neg:db (Plan.compile r ~focus:None)
    |> List.map (fun (a : Atom.t) ->
           List.fold_left2
             (fun s x t -> Subst.bind x t s)
             Subst.empty vars a.Atom.args)

let answers db (a : Atom.t) =
  let ss = query db [ Literal.Pos a ] in
  List.map (fun s -> List.map (Subst.apply s) a.Atom.args) ss
  |> List.sort_uniq Tuple.compare

let holds db a = answers db a <> []
