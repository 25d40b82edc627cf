(* Differential testing of the evaluation strategies: on randomly
   generated safe stratified programs with random EDBs, every engine
   must compute the same model —

     Naive == Seminaive == Maintain.init,

   and incremental maintenance must be invisible:

     init + apply(delta)            == materialize(updated EDB)
     one-fact-at-a-time deltas      == one batch delta
     init(half) + extend_rules(rest) == init(whole program)

   with a top-down (tabled) spot-check against the materialized model
   on the supported fragment. Deltas deliberately include facts on
   rule-defined predicates (base assertion / base retraction — the
   mediator's update path) and deletions of absent facts, so the
   agreement also pins the documented retract-and-rederive semantics.
   Further batches stress maintenance through negation: a
   deletion-heavy batch retracting about half of the base, and batches
   confined to predicates some rule reads under negation (both
   directions, batched and fact by fact). The interpreted maintenance
   handle must track the compiled one, and programs without aggregates
   must never fall back to rebuilding a stratum.

   Unstratified programs (negation through recursion) are checked
   against the alternating fixpoint: Engine.materialize, which certifies
   a program's stratified relaxation or continues the alternation where
   the certificate fails, must give Wellfounded.compute's true facts, or
   raise Undefined_atoms with its count, on every strategy.

   Queries are checked against the interpreter too: every rule body,
   plus one random extra literal, asked of the materialized model
   through Engine.query (the compiled kernel) and Eval.solve_body must
   give the same bindings, and neither may grow the term pool.

   The run is deterministic: case [i] uses seed [base*10_000 + i] where
   [base] comes from KIND_DIFF_SEED (default 0), so a failure report
   ("seed N: ...") reproduces by running the suite with the same
   environment. KIND_DIFF_CASES overrides the case count. *)

open Logic
module Engine = Datalog.Engine
module Maintain = Datalog.Maintain
module Database = Datalog.Database
module Program = Datalog.Program
module Topdown = Datalog.Topdown
module Tuple = Datalog.Tuple

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let cases = max 200 (env_int "KIND_DIFF_CASES" 220)
let base_seed = env_int "KIND_DIFF_SEED" 0

(* ------------------------------------------------------------------ *)
(* Program / EDB / delta generator                                     *)

let edb_preds = [ ("e0", 2); ("e1", 2); ("e2", 1) ]

let const st = Term.sym (Printf.sprintf "k%d" (Random.State.int st 6))

let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let ground_atom st (name, arity) =
  Atom.make name (List.init arity (fun _ -> const st))

(* Rules for [p_i] may read EDB predicates and [p_0..p_i] positively
   (so same-layer recursion happens) and EDB predicates and strictly
   lower [p_j] under negation or aggregation — stratified by
   construction. With [cyclic], positive and negated literals may read
   every [p_j], so negation runs through recursion, and there are no
   aggregates: through recursion, the alternating fixpoint need not
   settle on them (the unstratified cases add one that does). Safety by
   construction too: head and negated-literal variables are drawn from
   the variables of the positive body literals (plus an aggregate's
   result variable). *)
let gen_rules ?(cyclic = false) st =
  let var_pool = [ "A"; "B"; "C"; "D" ] in
  let nidb = 4 + Random.State.int st 3 in
  let idb =
    List.init nidb (fun i ->
        (Printf.sprintf "p%d" i, 1 + Random.State.int st 2))
  in
  let rule_for i (h, ha) =
    let below k = if cyclic then idb else List.filteri (fun j _ -> j < i + k) idb in
    let pos_pool = edb_preds @ below 1 in
    let neg_pool = edb_preds @ below 0 in
    let positives =
      List.init
        (1 + Random.State.int st 2)
        (fun _ ->
          let name, ar = pick st pos_pool in
          Atom.make name
            (List.init ar (fun _ ->
                 if Random.State.int st 100 < 20 then const st
                 else Term.var (pick st var_pool))))
    in
    (* Sometimes a count aggregate over a strictly-lower predicate:
       [N = count{GA [GB]; q(GA,GB)}]. The result variable feeds the
       head / negation pool; a grouped aggregate yields one binding of
       N per group value, an ungrouped one a single total. Aggregates
       also exercise the compiled path's non-streaming plan shape. *)
    let aggregates =
      if (not cyclic) && Random.State.int st 100 < 25 then
        let name, ar = pick st neg_pool in
        let grouped = ar >= 2 && Random.State.int st 2 = 0 in
        let args =
          List.init ar (fun k ->
              if k = 0 then Term.var "GA"
              else if k = 1 && grouped then Term.var "GB"
              else if Random.State.int st 100 < 30 then const st
              else Term.var (Printf.sprintf "G%d" k))
        in
        [
          Literal.count ~target:(Term.var "GA")
            ~group_by:(if grouped then [ Term.var "GB" ] else [])
            ~result:(Term.var "N")
            [ Atom.make name args ];
        ]
      else []
    in
    let pv =
      List.sort_uniq compare
        (List.concat_map Atom.vars positives
        @ if aggregates <> [] then [ "N" ] else [])
    in
    let bound_or_const () =
      if pv <> [] && Random.State.int st 100 < 80 then
        Term.var (pick st pv)
      else const st
    in
    let negatives =
      if Random.State.int st 100 < 40 then
        let name, ar = pick st neg_pool in
        [ Literal.neg name (List.init ar (fun _ -> bound_or_const ())) ]
      else []
    in
    Rule.make
      (Atom.make h (List.init ha (fun _ -> bound_or_const ())))
      (List.map (fun (a : Atom.t) -> Literal.pos a.Atom.pred a.Atom.args)
         positives
      @ negatives @ aggregates)
  in
  let rules =
    List.concat
      (List.mapi
         (fun i p ->
           List.init (1 + Random.State.int st 2) (fun _ -> rule_for i p))
         idb)
  in
  (rules, idb)

let gen_edb st =
  List.concat_map
    (fun p -> List.init (6 + Random.State.int st 10) (fun _ -> ground_atom st p))
    edb_preds

(* A delta mixing EDB insertions, deletions of existing and of absent
   facts, and (sometimes) base facts on rule-defined predicates. *)
let gen_delta st ~edb_facts ~idb =
  let additions =
    List.init
      (2 + Random.State.int st 6)
      (fun _ -> ground_atom st (pick st edb_preds))
    @
    if Random.State.int st 100 < 35 then
      List.init (1 + Random.State.int st 2) (fun _ ->
          ground_atom st (pick st idb))
    else []
  in
  let deletions =
    List.filter (fun _ -> Random.State.int st 100 < 15) edb_facts
    @ [ ground_atom st (pick st edb_preds) ]
    @
    if Random.State.int st 100 < 25 then [ ground_atom st (pick st idb) ]
    else []
  in
  Maintain.delta ~additions ~deletions ()

(* One literal to append to a query body: a [<>] test, a binding
   equality, an assignment, a builtin, or a positive or negated atom
   holding [unseen], a constant no stored row holds. *)
let extra_literal st ~idb ~unseen body =
  let vs = List.sort_uniq compare (List.concat_map Literal.binds body) in
  let term () =
    if vs <> [] && Random.State.int st 100 < 70 then Term.var (pick st vs)
    else const st
  in
  match Random.State.int st 7 with
  | 0 -> Literal.cmp Literal.Ne (term ()) (term ())
  | 1 -> Literal.cmp Literal.Eq (Term.var "E") (term ())
  | 2 ->
    let leaf () =
      Literal.Leaf
        (if Random.State.bool st then Term.int (Random.State.int st 4)
         else term ())
    in
    Literal.assign (Term.var "S") (Literal.Bin (Literal.Add, leaf (), leaf ()))
  | 3 ->
    let name, args =
      pick st
        [
          ("is_const", [ term () ]);
          ("is_app", [ term () ]);
          ("not_functor_prefix", [ term (); Term.str "k" ]);
        ]
    in
    Literal.pos (Literal.builtin_prefix ^ name) args
  | k ->
    let name, ar = pick st (edb_preds @ idb) in
    let at = Random.State.int st ar in
    let args = List.init ar (fun j -> if j = at then unseen else term ()) in
    if k < 5 then Literal.pos name args else Literal.neg name args

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let facts_str db =
  List.sort compare (List.map Atom.to_string (Database.all_facts db))

let check_same ctx a b =
  Alcotest.(check (list string)) ctx (facts_str a) (facts_str b)

let show_answers ss =
  List.map
    (fun sub ->
      String.concat ","
        (List.map
           (fun (x, t) -> x ^ "=" ^ Term.to_string t)
           (Subst.bindings sub)))
    ss
  |> List.sort compare

(* The compiled query answers what the interpreter does; a body the
   safety check rejects is refused, whatever the data holds. *)
let check_query ctx db body =
  let head =
    Atom.make "q"
      (List.map Term.var
         (List.sort_uniq compare (List.concat_map Literal.binds body)))
  in
  match Rule.check_safety (Rule.make head body) with
  | Error _ -> (
    match Engine.query db body with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: unsafe query answered" ctx)
  | Ok () ->
    Alcotest.(check (list string)) ctx
      (show_answers (Datalog.Eval.solve_body ~db ~neg:db body))
      (show_answers (Engine.query db body))

let naive_config = { Engine.default_config with strategy = Engine.Naive }

let interpreted_config =
  { Engine.default_config with Engine.compiled_plans = false }

let updated_edb edb (d : Maintain.delta) =
  let e = Database.copy edb in
  List.iter (fun f -> ignore (Database.remove_fact e f)) d.Maintain.deletions;
  List.iter (fun f -> ignore (Database.add_fact e f)) d.Maintain.additions;
  e

let run_case seed =
  let st = Random.State.make [| seed |] in
  let rules, idb = gen_rules st in
  let p = Program.make_exn rules in
  let edb_facts = gen_edb st in
  let edb = Database.of_facts edb_facts in
  let ctx what = Printf.sprintf "seed %d: %s" seed what in
  let fail_on_error what = function
    | Ok x -> x
    | Error e -> Alcotest.failf "seed %d: %s: %s" seed what e
  in
  (* strategies agree on the initial model *)
  let full = Engine.materialize p edb in
  (* counter sanity: two identical runs must report identical counters
     (a stats record leaked across runs would accumulate) *)
  let counted () =
    let rep = ref Engine.empty_report in
    ignore (Engine.materialize ~report:rep p edb);
    !rep
  in
  let r1 = counted () and r2 = counted () in
  Alcotest.(check (list int))
    (ctx "counters deterministic across runs")
    [ r1.Engine.derived; r1.Engine.joins; r1.Engine.tuples_scanned;
      r1.Engine.index_hits; r1.Engine.rounds ]
    [ r2.Engine.derived; r2.Engine.joins; r2.Engine.tuples_scanned;
      r2.Engine.index_hits; r2.Engine.rounds ];
  check_same (ctx "naive == seminaive")
    (Engine.materialize ~config:naive_config p edb)
    full;
  (* the compiled join kernel is a pure optimization: switching it off
     must not change the model (the interpreted path is the oracle) *)
  check_same (ctx "compiled == interpreted")
    (Engine.materialize ~config:interpreted_config p edb)
    full;
  (* queries: each rule body plus one extra literal, compiled against
     interpreted, from a stream of their own so the checks below see
     the same cases *)
  let qst = Random.State.make [| seed; 1 |] in
  let pool = Term.pool_size () in
  List.iteri
    (fun k (r : Rule.t) ->
      let unseen = Term.sym (Printf.sprintf "unseen_%d_%d" seed k) in
      let extra = extra_literal qst ~idb ~unseen r.Rule.body in
      let body = r.Rule.body @ [ extra ] in
      check_query
        (ctx
           ("compiled query == interpreted: "
           ^ String.concat ", " (List.map Literal.to_string body)))
        full body)
    rules;
  Alcotest.(check int) (ctx "queries grow no term pool") pool
    (Term.pool_size ());
  let fresh ?compiled edb =
    fail_on_error "Maintain.init" (Maintain.init ?compiled p edb)
  in
  (* without aggregates, a change to a negated input propagates by
     polarity: no stratum is ever rebuilt *)
  let aggregates =
    List.exists
      (fun (r : Rule.t) ->
        List.exists (function Literal.Agg _ -> true | _ -> false) r.Rule.body)
      rules
  in
  let apply what h d =
    let rep = fail_on_error what (Maintain.apply h d) in
    if not aggregates then
      Alcotest.(check int) (ctx (what ^ ": no stratum recomputed")) 0
        rep.Maintain.recomputed
  in
  let apply_one_by_one what h (d : Maintain.delta) =
    List.iter
      (fun f ->
        apply (what ^ ", single deletion") h (Maintain.delta ~deletions:[ f ] ()))
      d.Maintain.deletions;
    List.iter
      (fun f ->
        apply (what ^ ", single addition") h (Maintain.delta ~additions:[ f ] ()))
      d.Maintain.additions
  in
  let h = fresh edb in
  check_same (ctx "Maintain.init == materialize") (Maintain.db h) full;
  (* a batch delta equals re-materializing the updated EDB *)
  let d = gen_delta st ~edb_facts ~idb in
  let full' = Engine.materialize p (updated_edb edb d) in
  apply "apply batch" h d;
  check_same (ctx "batch delta == re-materialize") (Maintain.db h) full';
  (* the interpreted maintenance path is the oracle of the compiled one *)
  let hi = fresh ~compiled:false edb in
  apply "apply batch, interpreted" hi d;
  check_same (ctx "interpreted maintenance == compiled") (Maintain.db hi)
    (Maintain.db h);
  (* one-fact-at-a-time deltas land in the same state *)
  let h1 = fresh edb in
  apply_one_by_one "apply" h1 d;
  check_same (ctx "one-by-one == batch") (Maintain.db h1) (Maintain.db h);
  (* deletion-heavy: retract about half of the base together with base
     assertions on rule-defined predicates *)
  let asserted = List.init 3 (fun _ -> ground_atom st (pick st idb)) in
  let edb_a = Database.of_facts (edb_facts @ asserted) in
  let heavy =
    Maintain.delta
      ~deletions:
        (List.filter (fun _ -> Random.State.bool st) edb_facts @ asserted)
      ()
  in
  let full_heavy = Engine.materialize p (updated_edb edb_a heavy) in
  let ha = fresh edb_a and hai = fresh ~compiled:false edb_a in
  apply "apply deletion-heavy batch" ha heavy;
  check_same (ctx "deletion-heavy batch == re-materialize") (Maintain.db ha)
    full_heavy;
  apply "apply deletion-heavy batch, interpreted" hai heavy;
  check_same (ctx "deletion-heavy: interpreted == compiled") (Maintain.db hai)
    full_heavy;
  (* batches confined to the predicates read under negation: growing
     them blocks rule instances, shrinking them unblocks some *)
  let negated =
    List.sort_uniq compare
      (List.concat_map
         (fun (r : Rule.t) ->
           List.filter_map
             (function Literal.Neg a -> Some a.Atom.pred | _ -> None)
             r.Rule.body)
         rules)
  in
  if negated <> [] then begin
    let arity q = List.assoc q (edb_preds @ idb) in
    let gen n =
      List.init n (fun _ ->
          let q = pick st negated in
          ground_atom st (q, arity q))
    in
    let grow = Maintain.delta ~additions:(gen (2 + Random.State.int st 5)) () in
    let shrink =
      Maintain.delta
        ~deletions:
          (List.filter
             (fun (a : Atom.t) ->
               List.mem a.Atom.pred negated && Random.State.bool st)
             (edb_facts @ grow.Maintain.additions)
          @ gen 1)
        ()
    in
    let edb_grown = updated_edb edb grow in
    let hn = fresh edb and hn1 = fresh edb in
    let hni = fresh ~compiled:false edb in
    apply "apply negated growth" hn grow;
    check_same (ctx "negated growth == re-materialize") (Maintain.db hn)
      (Engine.materialize p edb_grown);
    apply "apply negated shrinkage" hn shrink;
    check_same (ctx "negated shrinkage == re-materialize") (Maintain.db hn)
      (Engine.materialize p (updated_edb edb_grown shrink));
    apply_one_by_one "negated growth" hn1 grow;
    apply_one_by_one "negated shrinkage" hn1 shrink;
    check_same (ctx "negated: one-by-one == batch") (Maintain.db hn1)
      (Maintain.db hn);
    apply "apply negated growth, interpreted" hni grow;
    apply "apply negated shrinkage, interpreted" hni shrink;
    check_same (ctx "negated: interpreted == compiled") (Maintain.db hni)
      (Maintain.db hn)
  end;
  (* growing the program incrementally equals starting with all of it *)
  let k = List.length rules / 2 in
  let first = List.filteri (fun i _ -> i < k) rules in
  let rest = List.filteri (fun i _ -> i >= k) rules in
  let h2 =
    fail_on_error "init on first half" (Maintain.init (Program.make_exn first) edb)
  in
  ignore (fail_on_error "extend_rules" (Maintain.extend_rules h2 rest));
  check_same (ctx "extend_rules == whole program") (Maintain.db h2) full;
  apply "apply after extend" h2 d;
  check_same (ctx "delta after extend == re-materialize") (Maintain.db h2) full';
  (* the static cardinality analysis is sound on the initial model:
     every predicate's actual extent lies in its inferred interval *)
  let res = Analysis.Card.analyze ~edb rules in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (a : Atom.t) ->
      Hashtbl.replace counts a.Atom.pred
        (1 + Option.value (Hashtbl.find_opt counts a.Atom.pred) ~default:0))
    (Database.all_facts full);
  Hashtbl.iter
    (fun pred n ->
      let iv = Analysis.Card.card res pred in
      if not (Analysis.Card.contains iv n) then
        Alcotest.failf "seed %d: %s has %d tuples, outside inferred %s" seed
          pred n
          (Format.asprintf "%a" Analysis.Card.pp_interval iv))
    counts;
  (* top-down spot check: tabled answers on one derived predicate *)
  try
    let name, ar = List.nth idb (seed mod List.length idb) in
    let goal =
      Atom.make name (List.init ar (fun i -> Term.var (Printf.sprintf "Q%d" i)))
    in
    let td = List.sort Tuple.compare (Topdown.solve p edb goal) in
    let bu = List.sort Tuple.compare (Engine.answers full goal) in
    let show ts =
      List.map (fun t -> String.concat "," (List.map Term.to_string t)) ts
    in
    Alcotest.(check (list string))
      (ctx "topdown == bottom-up")
      (show bu) (show td)
  with Topdown.Unsupported _ -> ()

let differential () =
  for i = 0 to cases - 1 do
    run_case ((base_seed * 10_000) + i)
  done

(* ------------------------------------------------------------------ *)
(* Unstratified programs. Engine.materialize certifies the stratified
   relaxation, or continues the alternating fixpoint of a stratum whose
   certificate fails, and must agree with Wellfounded.compute on every
   strategy: the same true facts when the model is total,
   [Undefined_atoms] with the model's count when it is not. Each case
   adds one shape the certificate must get right to random rules whose
   negations may run through recursion. *)

let shape st =
  let v = Term.var and x = Term.var "X" and y = Term.var "Y" in
  let k () = const st in
  let pos = Literal.pos and neg = Literal.neg and rule = Rule.make in
  match Random.State.int st 4 with
  | (0 | 1) as which ->
    (* a guarded existential, as an assertion-mode domain-map edge
       compiles: the placeholder gh(X, f(X)) unless X has a witness.
       Placeholders either never witness, witness (undefined atoms), or
       witness behind a guard that rejects them. *)
    let self = Random.State.int st 3 in
    let guard =
      if self = 2 then
        [ pos (Literal.builtin_prefix ^ "not_functor_prefix") [ y; Term.str "f" ] ]
      else []
    in
    [
      rule (Atom.make "gh" [ x; Term.app "f" [ x ] ]) [ pos "gb" [ x ]; neg "gs" [ x ] ];
      rule (Atom.make "gr" [ x; y ]) [ pos "gh" [ x; y ] ];
      rule (Atom.make "gs" [ x ]) ([ pos "gr" [ x; y ]; pos "gd" [ y ] ] @ guard);
      rule (Atom.make "gb" [ x ]) [ pos "e2" [ x ] ];
    ]
    @ (if self > 0 then [ rule (Atom.make "gd" [ y ]) [ pos "gh" [ x; y ] ] ] else [])
    (* real witnesses, sometimes none *)
    @ List.concat
        (List.init (Random.State.int st 3) (fun _ ->
             let a = k () and b = k () in
             [ Rule.fact (Atom.make "gr" [ a; b ]); Rule.fact (Atom.make "gd" [ b ]) ]))
    (* a stratified negation reading the guarded component *)
    @
    if which = 1 then
      [
        rule (Atom.make "gt" [ x ]) [ pos "gb" [ x ]; neg "gs" [ x ] ];
        rule (Atom.make "gu" [ x ]) [ pos "gh" [ x; y ]; neg "gt" [ x ] ];
      ]
    else []
  | 2 ->
    (* p :- not q. q :- not p. — dropping only [not q] would certify
       {p}. A loaded gp fact settles its instance: the check fires, and
       Γ of the relaxation derives nothing but the loaded facts. *)
    let loaded = Random.State.bool st in
    if Random.State.bool st then
      [ rule (Atom.make "gp" []) [ neg "gq" [] ]; rule (Atom.make "gq" []) [ neg "gp" [] ] ]
      @ if loaded then [ Rule.fact (Atom.make "gp" []) ] else []
    else
      [
        rule (Atom.make "gp" [ x ]) [ pos "e2" [ x ]; neg "gq" [ x ] ];
        rule (Atom.make "gq" [ x ])
          [ pos "e2" [ x ]; neg "gp" [ x ]; Literal.cmp Literal.Ne x (k ()) ];
      ]
      @ if loaded then [ Rule.fact (Atom.make "gp" [ k () ]) ] else []
  | _ ->
    (* an aggregate inside a component: the whole program alternates.
       The count reads gp, whose extent no negation changes, so the
       alternation settles. *)
    [
      rule (Atom.make "gp" [ x ]) [ pos "e2" [ x ] ];
      rule (Atom.make "gp" [ x ]) [ pos "gq" [ x ] ];
      rule (Atom.make "gq" [ x ]) [ pos "gp" [ x ]; neg "gr" [ x ] ];
      rule (Atom.make "gr" [ x ])
        [
          pos "e2" [ x ];
          Literal.count ~target:y ~group_by:[] ~result:(v "N") [ Atom.make "gp" [ y ] ];
          Literal.cmp Literal.Gt (v "N") (Term.int (Random.State.int st 8));
        ];
    ]

let run_unstratified_case seed =
  let st = Random.State.make [| seed; 2 |] in
  let rules, _ = gen_rules ~cyclic:true st in
  let p = Program.make_exn (rules @ shape st) in
  let edb = Database.of_facts (gen_edb st) in
  let outcome = function
    | Ok db -> facts_str db
    | Error n -> [ Printf.sprintf "Undefined_atoms %d" n ]
  in
  let wf = Datalog.Wellfounded.compute p edb in
  let expected =
    outcome
      (if Datalog.Wellfounded.is_total wf then Ok wf.Datalog.Wellfounded.true_facts
       else Error (Database.cardinal wf.Datalog.Wellfounded.undefined))
  in
  List.iter
    (fun (what, config) ->
      let got =
        match Engine.materialize ~config p edb with
        | db -> Ok db
        | exception Engine.Undefined_atoms n -> Error n
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: %s == well-founded" seed what)
        expected (outcome got))
    [
      ("certified", Engine.default_config);
      ("interpreted", interpreted_config);
      ("naive", naive_config);
    ]

let unstratified () =
  for i = 0 to cases - 1 do
    run_unstratified_case ((base_seed * 10_000) + i)
  done

(* ------------------------------------------------------------------ *)
(* Regression: an unstratified program must fill the engine report
   (counters shared with the stratified path went missing once). Here
   the relaxation's check fires, so the stratum alternates. *)

let wf_report () =
  let v = Term.var and s = Term.sym in
  let p =
    Program.make_exn
      [
        Rule.make
          (Atom.make "win" [ v "X" ])
          [ Literal.pos "move" [ v "X"; v "Y" ]; Literal.neg "win" [ v "Y" ] ];
      ]
  in
  let edb =
    Database.of_facts
      [ Atom.make "move" [ s "a"; s "b" ]; Atom.make "move" [ s "b"; s "c" ] ]
  in
  let rep = ref Engine.empty_report in
  let db = Engine.materialize ~report:rep p edb in
  Alcotest.(check bool) "fell back to well-founded" false !rep.Engine.stratified;
  Alcotest.(check bool) "win(b) holds" true
    (Database.mem db (Atom.make "win" [ s "b" ]));
  Alcotest.(check bool) "win(a) refuted" false
    (Database.mem db (Atom.make "win" [ s "a" ]));
  Alcotest.(check bool) "joins counted" true (!rep.Engine.joins > 0);
  Alcotest.(check bool) "tuples_scanned counted" true
    (!rep.Engine.tuples_scanned > 0);
  Alcotest.(check bool) "derived counted" true (!rep.Engine.derived >= 1);
  Alcotest.(check bool) "rounds counted" true (!rep.Engine.rounds > 0);
  (* the unstratified path also runs compiled plans, so it too must be
     a pure optimization *)
  check_same "wf: compiled == interpreted"
    (Engine.materialize ~config:interpreted_config p edb)
    db;
  (* a total unstratified program that also grows a skolem chain: the
     depth guard cuts it, and the report says so *)
  let chain =
    Program.make_exn
      (Program.rules p
      @ [
          Rule.make
            (Atom.make "chain" [ Term.app "f" [ v "X" ] ])
            [ Literal.pos "chain" [ v "X" ] ];
          Rule.fact (Atom.make "chain" [ s "a" ]);
        ])
  in
  let rep = ref Engine.empty_report in
  let db = Engine.materialize ~report:rep chain edb in
  Alcotest.(check bool) "chain: fell back to well-founded" false
    !rep.Engine.stratified;
  Alcotest.(check bool) "chain: win(b) holds" true
    (Database.mem db (Atom.make "win" [ s "b" ]));
  Alcotest.(check int) "chain: cut at the depth bound (a has depth 1)"
    Engine.default_config.Engine.max_term_depth
    (Database.count db "chain");
  Alcotest.(check bool) "chain: skolems_suppressed counted" true
    (!rep.Engine.skolems_suppressed > 0)

(* ------------------------------------------------------------------ *)
(* The new kernel counters: compiled runs answer joins through the
   plan cache and index probes; with the kernel switched off the plan
   cache is never consulted. *)

let kernel_counters () =
  let v = Term.var and s = Term.sym in
  let p =
    Program.make_exn
      (Rule.make
         (Atom.make "tc" [ v "X"; v "Y" ])
         [ Literal.pos "edge" [ v "X"; v "Y" ] ]
      :: Rule.make
           (Atom.make "tc" [ v "X"; v "Y" ])
           [ Literal.pos "tc" [ v "X"; v "Z" ]; Literal.pos "edge" [ v "Z"; v "Y" ] ]
      :: List.init 24 (fun k ->
             Rule.fact
               (Atom.make "edge"
                  [ s (Printf.sprintf "m%d" k); s (Printf.sprintf "m%d" (k + 1)) ])))
  in
  (* first run warms the global plan cache, second run must hit it *)
  ignore (Engine.materialize p (Database.create ()));
  let rep = ref Engine.empty_report in
  let db = Engine.materialize ~report:rep p (Database.create ()) in
  Alcotest.(check int) "full closure" (24 * 25 / 2)
    (List.length (Database.all_facts db) - 24);
  Alcotest.(check bool) "compiled: plan_cache_hits > 0" true
    (!rep.Engine.plan_cache_hits > 0);
  Alcotest.(check bool) "compiled: index_hits > 0" true
    (!rep.Engine.index_hits > 0);
  let rep_i = ref Engine.empty_report in
  ignore
    (Engine.materialize ~config:interpreted_config ~report:rep_i p
       (Database.create ()));
  Alcotest.(check int) "interpreted: plan_cache_hits = 0" 0
    !rep_i.Engine.plan_cache_hits

let suites =
  [
    ( "differential",
      [
        Alcotest.test_case
          (Printf.sprintf "%d random stratified programs agree across engines"
             cases)
          `Quick differential;
        Alcotest.test_case
          (Printf.sprintf
             "%d random unstratified programs: materialize == well-founded"
             cases)
          `Quick unstratified;
        Alcotest.test_case "well-founded fallback fills the report" `Quick
          wf_report;
        Alcotest.test_case "compiled kernel fills the plan counters" `Quick
          kernel_counters;
      ] );
  ]
