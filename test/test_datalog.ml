(* Tests for the Datalog engine: relations, stratification, naive vs
   semi-naive evaluation, negation, aggregation, well-founded models. *)

open Logic
open Datalog

let v = Term.var
let s = Term.sym
let i = Term.int
let atom p args = Atom.make p args
let rule h b = Rule.make h b
let fact p args = Rule.fact (atom p args)

let edge x y = fact "edge" [ s x; s y ]

(* tc(X,Y) :- edge(X,Y).  tc(X,Y) :- tc(X,Z), edge(Z,Y). *)
let tc_rules =
  [
    rule (atom "tc" [ v "X"; v "Y" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
    rule
      (atom "tc" [ v "X"; v "Y" ])
      [ Literal.pos "tc" [ v "X"; v "Z" ]; Literal.pos "edge" [ v "Z"; v "Y" ] ];
  ]

let chain_edges n =
  List.init n (fun k -> edge (Printf.sprintf "n%d" k) (Printf.sprintf "n%d" (k + 1)))

let sorted_answers db p arity =
  Engine.answers db (atom p (List.init arity (fun k -> v (Printf.sprintf "A%d" k))))
  |> List.map (fun tup -> String.concat "," (List.map Term.to_string tup))
  |> List.sort String.compare

(* -------------------------------------------------------------------- *)
(* Relation / database *)

let test_relation_basics () =
  let r = Relation.create () in
  Alcotest.(check bool) "add new" true (Relation.add r [ s "a"; s "b" ]);
  Alcotest.(check bool) "add dup" false (Relation.add r [ s "a"; s "b" ]);
  Alcotest.(check int) "cardinal" 1 (Relation.cardinal r);
  Alcotest.(check bool) "mem" true (Relation.mem r [ s "a"; s "b" ]);
  Alcotest.check_raises "non-ground rejected"
    (Invalid_argument "Relation.add: non-ground tuple (X, b)") (fun () ->
      ignore (Relation.add r [ v "X"; s "b" ]))

let test_relation_lookup_select () =
  let r = Relation.of_list [ [ s "a"; s "b" ]; [ s "a"; s "c" ]; [ s "d"; s "b" ] ] in
  Alcotest.(check int) "lookup pos 0" 2 (List.length (Relation.lookup r ~pos:0 (s "a")));
  Alcotest.(check int) "lookup pos 1" 2 (List.length (Relation.lookup r ~pos:1 (s "b")));
  Alcotest.(check int) "select bound first" 2
    (List.length (Relation.select r ~pattern:[ s "a"; v "Y" ]));
  Alcotest.(check int) "select all" 3
    (List.length (Relation.select r ~pattern:[ v "X"; v "Y" ]));
  (* repeated variable: only tuples with equal components *)
  let rr = Relation.of_list [ [ s "a"; s "a" ]; [ s "a"; s "b" ] ] in
  Alcotest.(check int) "select diagonal" 1
    (List.length (Relation.select rr ~pattern:[ v "X"; v "X" ]))

(* A fully ground pattern is a row-set lookup: it builds no index, so
   the relation takes no more memory than before. *)
let test_relation_ground_select () =
  let r = Relation.of_list [ [ s "a"; s "b" ]; [ s "a"; s "b"; s "c" ] ] in
  let words = Obj.reachable_words (Obj.repr r) in
  let show pattern =
    List.map
      (fun tup -> String.concat "," (List.map Term.to_string tup))
      (Relation.select r ~pattern)
  in
  Alcotest.(check (list string)) "present row" [ "a,b" ] (show [ s "a"; s "b" ]);
  Alcotest.(check (list string)) "absent row" [] (show [ s "a"; s "c" ]);
  Alcotest.(check (list string)) "absent row of the other arity" []
    (show [ s "a"; s "b"; s "b" ]);
  Alcotest.(check (list string)) "no row of this arity" [] (show [ s "a" ]);
  Alcotest.(check int) "no index built" words
    (Obj.reachable_words (Obj.repr r))

let test_relation_index_after_add () =
  let r = Relation.create () in
  ignore (Relation.add r [ s "a"; s "b" ]);
  (* force index creation *)
  ignore (Relation.lookup r ~pos:0 (s "a"));
  ignore (Relation.add r [ s "a"; s "c" ]);
  Alcotest.(check int) "index maintained incrementally" 2
    (List.length (Relation.lookup r ~pos:0 (s "a")))

let test_relation_copy_lookup () =
  (* Copies clone index tables: an index built on the original must
     answer lookups on the copy, and mutations after the copy must not
     leak across in either direction — including through a lazily
     pending insertion log shared at copy time. *)
  let r = Relation.create () in
  ignore (Relation.add r [ s "a"; s "b" ]);
  ignore (Relation.lookup r ~pos:0 (s "a"));
  (* this row is only in the insertion log, not yet in the index *)
  ignore (Relation.add r [ s "a"; s "c" ]);
  let r2 = Relation.copy r in
  Alcotest.(check int) "copy answers via cloned index" 2
    (List.length (Relation.lookup r2 ~pos:0 (s "a")));
  ignore (Relation.add r2 [ s "a"; s "d" ]);
  ignore (Relation.remove r [ s "a"; s "b" ]);
  Alcotest.(check int) "original unaffected by copy's insert" 1
    (List.length (Relation.lookup r ~pos:0 (s "a")));
  Alcotest.(check int) "copy unaffected by original's remove" 3
    (List.length (Relation.lookup r2 ~pos:0 (s "a")))

let test_database () =
  let db = Database.create () in
  ignore (Database.add_fact db (atom "p" [ s "a" ]));
  ignore (Database.add_fact db (atom "q" [ s "b"; s "c" ]));
  Alcotest.(check int) "cardinal" 2 (Database.cardinal db);
  Alcotest.(check (list string)) "predicates" [ "p"; "q" ] (Database.predicates db);
  let db2 = Database.copy db in
  ignore (Database.add_fact db2 (atom "p" [ s "z" ]));
  Alcotest.(check int) "copy isolated" 1 (Database.count db "p");
  Alcotest.(check int) "copy extended" 2 (Database.count db2 "p")

(* -------------------------------------------------------------------- *)
(* Stratification *)

let test_stratify_positive () =
  let p = Program.make_exn tc_rules in
  match Stratify.stratify p with
  | Stratify.Stratified strata ->
    Alcotest.(check int) "single stratum" 1 (List.length strata)
  | Stratify.Unstratified _ -> Alcotest.fail "tc is stratified"

let test_stratify_negation () =
  (* unreach(X) :- node(X), not reach(X) — reach below unreach. *)
  let rules =
    tc_rules
    @ [
        rule (atom "reach" [ v "X" ]) [ Literal.pos "tc" [ s "root"; v "X" ] ];
        rule
          (atom "unreach" [ v "X" ])
          [ Literal.pos "node" [ v "X" ]; Literal.neg "reach" [ v "X" ] ];
      ]
  in
  let p = Program.make_exn rules in
  match Stratify.stratify p with
  | Stratify.Stratified strata ->
    let stratum_of q =
      List.mapi (fun k qs -> (k, qs)) strata
      |> List.find (fun (_, qs) -> List.mem q qs)
      |> fst
    in
    Alcotest.(check bool) "reach below unreach" true
      (stratum_of "reach" < stratum_of "unreach")
  | Stratify.Unstratified _ -> Alcotest.fail "program is stratified"

let test_stratify_cycle_detected () =
  (* p :- not q. q :- not p. *)
  let rules =
    [
      rule (atom "p" [ s "a" ]) [ Literal.pos "u" [ s "a" ]; Literal.neg "q" [ s "a" ] ];
      rule (atom "q" [ s "a" ]) [ Literal.pos "u" [ s "a" ]; Literal.neg "p" [ s "a" ] ];
    ]
  in
  let p = Program.make_exn rules in
  match Stratify.stratify p with
  | Stratify.Unstratified _ -> ()
  | Stratify.Stratified _ -> Alcotest.fail "negative cycle must be rejected"

let test_stratify_aggregate_edge () =
  (* count over p feeding p would be unstratified. *)
  let rules =
    [
      rule (atom "p" [ v "N" ])
        [
          Literal.count ~target:(v "X") ~group_by:[] ~result:(v "N")
            [ atom "p" [ v "X" ] ];
        ];
    ]
  in
  let p = Program.make_exn rules in
  Alcotest.(check bool) "aggregate self-loop unstratified" false
    (Stratify.is_stratified p)

(* One Tarjan pass gives both verdicts: the nonmonotonic edges inside a
   component, and the strata with those edges ignored (the relaxation
   of an unstratified program). *)
let test_stratify_layers () =
  let rules =
    [
      rule (atom "p" [ v "X" ]) [ Literal.pos "u" [ v "X" ]; Literal.neg "q" [ v "X" ] ];
      rule (atom "q" [ v "X" ]) [ Literal.pos "u" [ v "X" ]; Literal.neg "p" [ v "X" ] ];
      rule (atom "t" [ v "X" ]) [ Literal.pos "u" [ v "X" ]; Literal.neg "p" [ v "X" ] ];
    ]
  in
  let p = Program.make_exn rules in
  let l = Stratify.layers p in
  Alcotest.(check (list (list string))) "relaxation strata"
    [ [ "p"; "q"; "u" ]; [ "t" ] ]
    l.Stratify.strata;
  Alcotest.(check (list int)) "rules by stratum" [ 2; 1 ]
    (List.map List.length l.Stratify.rules);
  Alcotest.(check (list (pair string string))) "cyclic edges"
    [ ("p", "q"); ("q", "p") ]
    (List.map
       (fun (e : Stratify.edge) -> (e.Stratify.from_pred, e.Stratify.to_pred))
       l.Stratify.cyclic);
  Alcotest.(check bool) "p and q share a component" true
    (l.Stratify.scc "p" = l.Stratify.scc "q");
  Alcotest.(check bool) "t sits above them" true
    (l.Stratify.scc "t" > l.Stratify.scc "p");
  match Stratify.stratify p with
  | Stratify.Unstratified preds ->
    Alcotest.(check (list string)) "the cyclic component" [ "p"; "q" ] preds
  | Stratify.Stratified _ -> Alcotest.fail "p and q negate each other"

(* -------------------------------------------------------------------- *)
(* Materialization: closure, negation, aggregates *)

let test_tc_chain () =
  let p = Program.make_exn (tc_rules @ chain_edges 10) in
  let db = Engine.materialize p (Database.create ()) in
  (* chain of 11 nodes: 55 tc pairs *)
  Alcotest.(check int) "tc count" 55 (Database.count db "tc");
  Alcotest.(check bool) "endpoint reachable" true
    (Database.mem db (atom "tc" [ s "n0"; s "n10" ]))

let test_naive_equals_seminaive () =
  let p = Program.make_exn (tc_rules @ chain_edges 15) in
  let db_n =
    Engine.materialize
      ~config:{ Engine.default_config with Engine.strategy = Engine.Naive }
      p (Database.create ())
  in
  let db_s = Engine.materialize p (Database.create ()) in
  Alcotest.(check (list string))
    "same model" (sorted_answers db_n "tc" 2) (sorted_answers db_s "tc" 2)

let test_seminaive_cheaper () =
  let p = Program.make_exn (tc_rules @ chain_edges 30) in
  let rn = ref Engine.empty_report in
  let rs = ref !rn in
  ignore
    (Engine.materialize
       ~config:{ Engine.default_config with Engine.strategy = Engine.Naive }
       ~report:rn p (Database.create ()));
  ignore (Engine.materialize ~report:rs p (Database.create ()));
  Alcotest.(check bool)
    (Printf.sprintf "semi-naive scans fewer tuples (%d < %d)"
       !rs.Engine.tuples_scanned !rn.Engine.tuples_scanned)
    true
    (!rs.Engine.tuples_scanned < !rn.Engine.tuples_scanned)

let test_negation_stratified () =
  let rules =
    tc_rules
    @ [
        rule (atom "node" [ v "X" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
        rule (atom "node" [ v "Y" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
        rule (atom "reach" [ v "X" ]) [ Literal.pos "tc" [ s "n0"; v "X" ] ];
        rule
          (atom "unreach" [ v "X" ])
          [ Literal.pos "node" [ v "X" ]; Literal.neg "reach" [ v "X" ] ];
      ]
    @ chain_edges 3
    @ [ edge "isolated" "isolated2" ]
  in
  let db = Engine.materialize (Program.make_exn rules) (Database.create ()) in
  Alcotest.(check bool) "isolated unreachable" true
    (Database.mem db (atom "unreach" [ s "isolated" ]));
  Alcotest.(check bool) "n0 not unreachable (not reach(n0) is true though: n0 unreach)" true
    (Database.mem db (atom "unreach" [ s "n0" ]));
  Alcotest.(check bool) "n3 reachable" true
    (not (Database.mem db (atom "unreach" [ s "n3" ])))

let test_aggregate_count_group () =
  (* per-department headcount *)
  let rules =
    [
      fact "works" [ s "ann"; s "cs" ];
      fact "works" [ s "bob"; s "cs" ];
      fact "works" [ s "carla"; s "math" ];
      rule
        (atom "headcount" [ v "D"; v "N" ])
        [
          Literal.count ~target:(v "P") ~group_by:[ v "D" ] ~result:(v "N")
            [ atom "works" [ v "P"; v "D" ] ];
        ];
    ]
  in
  let db = Engine.materialize (Program.make_exn rules) (Database.create ()) in
  Alcotest.(check bool) "cs=2" true (Database.mem db (atom "headcount" [ s "cs"; i 2 ]));
  Alcotest.(check bool) "math=1" true
    (Database.mem db (atom "headcount" [ s "math"; i 1 ]));
  Alcotest.(check int) "two groups" 2 (Database.count db "headcount")

let test_aggregate_count_distinct () =
  (* duplicate derivations must not double-count (set semantics) *)
  let rules =
    [
      fact "e1" [ s "x"; s "a" ];
      fact "e2" [ s "x"; s "a" ];
      rule (atom "u" [ v "X"; v "Y" ]) [ Literal.pos "e1" [ v "X"; v "Y" ] ];
      rule (atom "u" [ v "X"; v "Y" ]) [ Literal.pos "e2" [ v "X"; v "Y" ] ];
      rule
        (atom "n" [ v "N" ])
        [
          Literal.count ~target:(v "Y") ~group_by:[] ~result:(v "N")
            [ atom "u" [ s "x"; v "Y" ] ];
        ];
    ]
  in
  let db = Engine.materialize (Program.make_exn rules) (Database.create ()) in
  Alcotest.(check bool) "count distinct" true (Database.mem db (atom "n" [ i 1 ]))

let test_aggregate_sum_min_max_avg () =
  let rules =
    [
      fact "m" [ s "a"; i 10 ];
      fact "m" [ s "b"; i 20 ];
      fact "m" [ s "c"; i 30 ];
      rule (atom "total" [ v "N" ])
        [
          Literal.agg Literal.Sum ~target:(v "V") ~group_by:[] ~result:(v "N")
            [ atom "m" [ v "K"; v "V" ] ];
        ];
      rule (atom "lo" [ v "N" ])
        [
          Literal.agg Literal.Min ~target:(v "V") ~group_by:[] ~result:(v "N")
            [ atom "m" [ v "K"; v "V" ] ];
        ];
      rule (atom "hi" [ v "N" ])
        [
          Literal.agg Literal.Max ~target:(v "V") ~group_by:[] ~result:(v "N")
            [ atom "m" [ v "K"; v "V" ] ];
        ];
      rule (atom "mean" [ v "N" ])
        [
          Literal.agg Literal.Avg ~target:(v "V") ~group_by:[] ~result:(v "N")
            [ atom "m" [ v "K"; v "V" ] ];
        ];
    ]
  in
  let db = Engine.materialize (Program.make_exn rules) (Database.create ()) in
  Alcotest.(check bool) "sum" true (Database.mem db (atom "total" [ Term.float 60.0 ]));
  Alcotest.(check bool) "min" true (Database.mem db (atom "lo" [ i 10 ]));
  Alcotest.(check bool) "max" true (Database.mem db (atom "hi" [ i 30 ]));
  Alcotest.(check bool) "avg" true (Database.mem db (atom "mean" [ Term.float 20.0 ]))

let test_arith_assign () =
  let rules =
    [
      fact "p" [ i 4 ];
      rule (atom "q" [ v "Y" ])
        [
          Literal.pos "p" [ v "X" ];
          Literal.assign (v "Y")
            (Literal.Bin (Literal.Mul, Literal.Leaf (v "X"), Literal.Leaf (i 3)));
        ];
    ]
  in
  let db = Engine.materialize (Program.make_exn rules) (Database.create ()) in
  Alcotest.(check bool) "4*3=12" true (Database.mem db (atom "q" [ i 12 ]))

let test_skolem_bound () =
  (* f-chains: p(f(X)) :- p(X) — must terminate via depth bound. *)
  let rules =
    [
      fact "p" [ s "a" ];
      rule (atom "p" [ Term.app "f" [ v "X" ] ]) [ Literal.pos "p" [ v "X" ] ];
    ]
  in
  let report = ref Engine.empty_report in
  let db =
    Engine.materialize
      ~config:{ Engine.default_config with Engine.max_term_depth = 4 }
      ~report (Program.make_exn rules) (Database.create ())
  in
  (* a, f(a), f(f(a)), f(f(f(a))) : depths 1..4 *)
  Alcotest.(check int) "bounded facts" 4 (Database.count db "p");
  Alcotest.(check bool) "suppression recorded" true
    (!report.Engine.skolems_suppressed > 0)

(* -------------------------------------------------------------------- *)
(* Well-founded semantics *)

let test_wellfounded_win_move () =
  (* win(X) :- move(X,Y), not win(Y).
     Chain a->b->c: win(b) (b moves to dead-end c), win(a) undefined? No:
     a->b, b->c, c dead. win(b) true (move to c, c has no move so not win(c)).
     win(a): move to b, win(b) true, so win(a) false. All total. *)
  let rules =
    [
      fact "move" [ s "a"; s "b" ];
      fact "move" [ s "b"; s "c" ];
      rule (atom "win" [ v "X" ])
        [ Literal.pos "move" [ v "X"; v "Y" ]; Literal.neg "win" [ v "Y" ] ];
    ]
  in
  let m = Wellfounded.compute (Program.make_exn rules) (Database.create ()) in
  Alcotest.(check bool) "win(b)" true
    (Database.mem m.Wellfounded.true_facts (atom "win" [ s "b" ]));
  Alcotest.(check bool) "not win(a)" false
    (Database.mem m.Wellfounded.true_facts (atom "win" [ s "a" ]));
  Alcotest.(check bool) "total" true (Wellfounded.is_total m)

let test_wellfounded_undefined_cycle () =
  (* a <-> b two-cycle: win(a), win(b) both undefined. *)
  let rules =
    [
      fact "move" [ s "a"; s "b" ];
      fact "move" [ s "b"; s "a" ];
      rule (atom "win" [ v "X" ])
        [ Literal.pos "move" [ v "X"; v "Y" ]; Literal.neg "win" [ v "Y" ] ];
    ]
  in
  let m = Wellfounded.compute (Program.make_exn rules) (Database.create ()) in
  Alcotest.(check int) "both undefined" 2
    (Database.count m.Wellfounded.undefined "win");
  Alcotest.(check bool) "not total" false (Wellfounded.is_total m)

let test_wellfounded_agrees_with_stratified () =
  let rules =
    tc_rules @ chain_edges 5
    @ [
        rule (atom "node" [ v "X" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
        rule
          (atom "sink" [ v "X" ])
          [ Literal.pos "node" [ v "X" ]; Literal.neg "edge" [ v "X"; v "X" ] ];
      ]
  in
  let p = Program.make_exn rules in
  let strat = Engine.materialize p (Database.create ()) in
  let wf = Wellfounded.compute p (Database.create ()) in
  Alcotest.(check bool) "wf total on stratified" true (Wellfounded.is_total wf);
  Alcotest.(check int) "same cardinality" (Database.cardinal strat)
    (Database.cardinal wf.Wellfounded.true_facts)

let test_engine_unstratified_guard () =
  let rules =
    [
      fact "u" [ s "a" ];
      rule (atom "p" [ v "X" ]) [ Literal.pos "u" [ v "X" ]; Literal.neg "q" [ v "X" ] ];
      rule (atom "q" [ v "X" ]) [ Literal.pos "u" [ v "X" ]; Literal.neg "p" [ v "X" ] ];
    ]
  in
  let p = Program.make_exn rules in
  (* p/q over 'a' are undefined in the well-founded model -> Undefined_atoms. *)
  match Engine.materialize p (Database.create ()) with
  | exception Engine.Undefined_atoms 2 -> ()
  | exception Engine.Undefined_atoms n -> Alcotest.failf "expected 2 undefined, got %d" n
  | _ -> Alcotest.fail "expected Undefined_atoms"

(* A stratum's own loaded facts take part in its continuation: p(a)
   blocks q, so p(b) holds. The relaxation derives q as well, its check
   fires, and Γ of the relaxation derives nothing beyond the loaded
   p(a) — which the alternation must not mistake for its start. *)
let test_engine_loaded_facts_in_stratum () =
  let rules =
    [
      fact "p" [ s "a" ];
      rule (atom "p" [ s "b" ]) [ Literal.neg "q" [] ];
      rule (atom "q" []) [ Literal.neg "p" [ s "a" ] ];
    ]
  in
  let p = Program.make_exn rules in
  let wf = Wellfounded.compute p (Database.create ()) in
  Alcotest.(check bool) "well-founded model total" true (Wellfounded.is_total wf);
  match Engine.materialize p (Database.create ()) with
  | db ->
    Alcotest.(check (list string)) "p(a), p(b)" [ "a"; "b" ] (sorted_answers db "p" 1);
    Alcotest.(check bool) "== Wellfounded.compute" true
      (Database.equal db wf.Wellfounded.true_facts)
  | exception Engine.Undefined_atoms n ->
    Alcotest.failf "%d atoms reported undefined in a total model" n

(* The alternation settles at the first A_{j+1} = A_j or
   A_{j+1} = A_{j-1}: three Γ applications for each of these programs,
   whose first alternation settles them. *)
let test_wellfounded_alternations () =
  let move a b = fact "move" [ s a; s b ] in
  let win =
    rule (atom "win" [ v "X" ])
      [ Literal.pos "move" [ v "X"; v "Y" ]; Literal.neg "win" [ v "Y" ] ]
  in
  let count rules =
    (Wellfounded.compute (Program.make_exn rules) (Database.create ()))
      .Wellfounded.alternations
  in
  Alcotest.(check int) "win over a->b->c" 3
    (count [ move "a" "b"; move "b" "c"; win ]);
  Alcotest.(check int) "draw a<->b" 3 (count [ move "a" "b"; move "b" "a"; win ]);
  Alcotest.(check int) "p(X) :- q(X), not p(X). q(a)." 3
    (count
       [
         rule (atom "p" [ v "X" ]) [ Literal.pos "q" [ v "X" ]; Literal.neg "p" [ v "X" ] ];
         fact "q" [ s "a" ];
       ]);
  Alcotest.(check int) "Neuro scale 20 plus one has witness" 3
    (Lazy.force Neuro_fixture.with_witness_wf).Wellfounded.alternations

(* An aggregate inside a component: A_1..A_4 = {ga}, {ga, gbig},
   {gbig}, {} and A_5 = A_1, a cycle of period 4 that never settles.
   It is reported, not run forever. *)
let test_wellfounded_unsettled () =
  let p =
    Program.make_exn
      [
        rule (atom "ga" [ v "X" ])
          [ Literal.pos "e2" [ v "X" ]; Literal.neg "gbig" [ v "X" ] ];
        rule (atom "gbig" [ v "X" ])
          [
            Literal.pos "e2" [ v "X" ];
            Literal.count ~target:(v "Y") ~group_by:[] ~result:(v "N")
              [ atom "ga" [ v "Y" ] ];
            Literal.cmp Literal.Gt (v "N") (i 0);
          ];
        fact "e2" [ s "a" ];
        fact "e2" [ s "b" ];
      ]
  in
  (match Wellfounded.compute p (Database.create ()) with
  | exception Eval.Diverged _ -> ()
  | _ -> Alcotest.fail "Wellfounded.compute settled a 4-cycle");
  match Engine.materialize p (Database.create ()) with
  | exception Eval.Diverged _ -> ()
  | _ -> Alcotest.fail "Engine.materialize settled a 4-cycle"

(* An aggregate inside a component that climbs and then settles:
   r(M) needs M <= |r| + 1, so each Γ adds two facts, and the sequence
   reaches r(0..99) after about fifty Γ. No iterate repeats, so it is
   never reported as a cycle, however long it climbs. *)
let test_wellfounded_late_settle () =
  let leaf t = Literal.Leaf t in
  let p =
    Program.make_exn
      [
        fact "r" [ i 0 ];
        rule (atom "r" [ v "M" ])
          [
            Literal.pos "r" [ v "K" ];
            Literal.assign (v "M") (Literal.Bin (Literal.Add, leaf (v "K"), leaf (i 1)));
            Literal.cmp Literal.Lt (v "M") (i 100);
            Literal.count ~target:(v "Y") ~group_by:[] ~result:(v "N")
              [ atom "r" [ v "Y" ] ];
            Literal.assign (v "L") (Literal.Bin (Literal.Add, leaf (v "N"), leaf (i 1)));
            Literal.cmp Literal.Le (v "M") (v "L");
          ];
      ]
  in
  let expected = List.init 100 string_of_int |> List.sort String.compare in
  let m = Wellfounded.compute p (Database.create ()) in
  Alcotest.(check bool) "total" true (Wellfounded.is_total m);
  Alcotest.(check (list string)) "Wellfounded.compute: r(0..99)" expected
    (sorted_answers m.Wellfounded.true_facts "r" 1);
  Alcotest.(check bool) "climbs for more than 40 Γ" true
    (m.Wellfounded.alternations > 40);
  Alcotest.(check (list string)) "Engine.materialize: r(0..99)" expected
    (sorted_answers (Engine.materialize p (Database.create ())) "r" 1)

(* -------------------------------------------------------------------- *)
(* Query API *)

let test_query_conjunctive () =
  let p = Program.make_exn (tc_rules @ chain_edges 4) in
  let db = Engine.materialize p (Database.create ()) in
  let ss =
    Engine.query db
      [ Literal.pos "tc" [ s "n0"; v "X" ]; Literal.pos "tc" [ v "X"; s "n4" ] ]
  in
  (* intermediate nodes n1..n3 *)
  Alcotest.(check int) "intermediates" 3 (List.length ss)

let test_query_negation_and_cmp () =
  let db = Database.create () in
  List.iter (fun k -> ignore (Database.add_fact db (atom "val" [ i k ]))) [ 1; 2; 3; 4 ];
  ignore (Database.add_fact db (atom "bad" [ i 2 ]));
  let ss =
    Engine.query db
      [
        Literal.pos "val" [ v "X" ];
        Literal.neg "bad" [ v "X" ];
        Literal.cmp Literal.Lt (v "X") (i 4);
      ]
  in
  Alcotest.(check int) "1 and 3" 2 (List.length ss)

(* -------------------------------------------------------------------- *)
(* Compiled-kernel invariants *)

(* Queries are compiled per call: they add no plan to the plan cache,
   and whatever constants they carry they add no term to the pool,
   which never frees an entry. Each shape below reaches the pool a
   different way: a ground argument, a key bound by an equality, a
   composite key, an assigned number, a negation and a comparison. *)
let test_query_grows_nothing () =
  let p = Program.make_exn (tc_rules @ chain_edges 4) in
  let db = Engine.materialize p (Database.create ()) in
  let pool0 = Term.pool_size () and cache0 = Plan.cache_size () in
  let answers k =
    let fresh = s (Printf.sprintf "never_interned_%d" k) in
    let from_n0 = Literal.pos "tc" [ s "n0"; v "X" ] in
    List.map
      (fun body -> List.length (Engine.query db body))
      [
        [ Literal.pos "tc" [ s "n0"; fresh ] ];
        [ from_n0; Literal.cmp Literal.Eq (v "Y") fresh;
          Literal.pos "tc" [ v "X"; v "Y" ] ];
        [ from_n0; Literal.cmp Literal.Eq (v "Y") fresh;
          Literal.pos "tc" [ v "X"; Term.app "f" [ v "Y" ] ] ];
        [ from_n0;
          Literal.assign (v "N")
            (Literal.Bin
               (Literal.Add, Literal.Leaf (i 1_000_000), Literal.Leaf (i k)));
          Literal.pos "tc" [ v "X"; v "N" ] ];
        [ from_n0; Literal.neg "tc" [ v "X"; fresh ] ];
        [ from_n0; Literal.cmp Literal.Ne (v "X") fresh ];
      ]
  in
  for k = 1 to 1000 do
    Alcotest.(check (list int)) "answers" [ 0; 0; 0; 0; 4; 4 ] (answers k)
  done;
  Alcotest.(check int) "term pool unchanged" pool0 (Term.pool_size ());
  Alcotest.(check int) "plan cache unchanged" cache0 (Plan.cache_size ())

(* A scan with every column bound is a membership test on the row set:
   it finds present rows, not absent ones, and a row of another arity
   under the same predicate never matches. Each test counts one join
   and one index hit, plus one scanned tuple when the row is there. *)
let test_fully_bound_scan () =
  let db =
    Database.of_facts
      [
        atom "k2" [ s "a"; s "b" ]; atom "k2" [ s "a"; s "c" ];
        atom "k1" [ s "a" ]; atom "k1" [ s "b" ];
        atom "r" [ s "a"; s "b" ]; atom "r" [ s "a"; s "b"; s "c" ];
        atom "r" [ s "b" ];
      ]
  in
  let show ss =
    List.map
      (fun sub ->
        String.concat ","
          (List.map
             (fun (x, t) -> x ^ "=" ^ Term.to_string t)
             (Subst.bindings sub)))
      ss
    |> List.sort String.compare
  in
  let check name body expected =
    let st = Eval.new_stats () in
    let got = Engine.query ~stats:st db body in
    Alcotest.(check (list string)) name expected (show got);
    Alcotest.(check (list string)) (name ^ ": interpreter agrees")
      (show (Eval.solve_body ~db ~neg:db body)) (show got);
    Alcotest.(check (list int))
      (name ^ ": joins, index hits, scanned")
      [ 3; 2; 3 ]
      [ st.Eval.joins; st.Eval.index_hits; st.Eval.tuples_scanned ]
  in
  check "binary: r(a,b) present, r(a,c) absent"
    [ Literal.pos "k2" [ v "X"; v "Y" ]; Literal.pos "r" [ v "X"; v "Y" ] ]
    [ "X=a,Y=b" ];
  check "unary: r(b) present, r(a) absent beside r(a,b) and r(a,b,c)"
    [ Literal.pos "k1" [ v "X" ]; Literal.pos "r" [ v "X" ] ]
    [ "X=b" ];
  Alcotest.(check int) "ground ternary query" 1
    (List.length (Engine.query db [ Literal.pos "r" [ s "a"; s "b"; s "c" ] ]));
  Alcotest.(check int) "ternary pattern over a binary row" 0
    (List.length (Engine.query db [ Literal.pos "r" [ s "a"; s "b"; s "b" ] ]));
  let p =
    Program.make_exn
      [
        rule (atom "both" [ v "X"; v "Y" ])
          [ Literal.pos "k2" [ v "X"; v "Y" ]; Literal.pos "r" [ v "X"; v "Y" ] ];
        rule (atom "one" [ v "X" ])
          [ Literal.pos "k1" [ v "X" ]; Literal.pos "r" [ v "X" ] ];
      ]
  in
  let m = Engine.materialize p db in
  Alcotest.(check (list string)) "rule: both" [ "a,b" ]
    (sorted_answers m "both" 2);
  Alcotest.(check (list string)) "rule: one" [ "b" ] (sorted_answers m "one" 1)

(* The counters of a small fixed program, pinned: turning fully bound
   scans into membership tests must count what the index probes they
   replace counted. [direct] and [first] end in a fully bound scan of
   a binary and a unary relation. *)
let test_kernel_counters_pinned () =
  let p =
    Program.make_exn
      (tc_rules @ chain_edges 6
      @ [
          fact "start" [ s "n0" ];
          rule (atom "direct" [ v "X"; v "Y" ])
            [ Literal.pos "tc" [ v "X"; v "Y" ]; Literal.pos "edge" [ v "X"; v "Y" ] ];
          rule (atom "indirect" [ v "X"; v "Y" ])
            [ Literal.pos "tc" [ v "X"; v "Y" ]; Literal.neg "edge" [ v "X"; v "Y" ] ];
          rule (atom "first" [ v "X" ])
            [ Literal.pos "tc" [ v "X"; v "Y" ]; Literal.pos "start" [ v "X" ] ];
        ])
  in
  let rep = ref Engine.empty_report in
  let db = Engine.materialize ~report:rep p (Database.create ()) in
  Alcotest.(check (list int)) "tc, direct, indirect, first" [ 21; 6; 15; 1 ]
    (List.map (Database.count db) [ "tc"; "direct"; "indirect"; "first" ]);
  Alcotest.(check (list int)) "derived, joins, index hits, scanned"
    [ 43; 96; 91; 158 ]
    [ !rep.Engine.derived; !rep.Engine.joins; !rep.Engine.index_hits;
      !rep.Engine.tuples_scanned ]

(* Property: naive and semi-naive agree on random acyclic tc workloads. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"naive = semi-naive on random graphs" ~count:60
    QCheck.(pair (int_bound 12) (list_of_size Gen.(int_bound 30) (pair (int_bound 12) (int_bound 12))))
    (fun (n, pairs) ->
      let edges =
        List.map
          (fun (a, b) ->
            fact "edge" [ s (Printf.sprintf "v%d" (a mod (n + 1)));
                          s (Printf.sprintf "v%d" (b mod (n + 1))) ])
          pairs
      in
      let p = Program.make_exn (tc_rules @ edges) in
      let db_n =
        Engine.materialize
          ~config:{ Engine.default_config with Engine.strategy = Engine.Naive }
          p (Database.create ())
      in
      let db_s = Engine.materialize p (Database.create ()) in
      sorted_answers db_n "tc" 2 = sorted_answers db_s "tc" 2)

(* Property: tc is transitive and contains edge. *)
let prop_tc_transitive =
  QCheck.Test.make ~name:"tc is a transitive superset of edge" ~count:40
    QCheck.(list_of_size Gen.(int_bound 25) (pair (int_bound 8) (int_bound 8)))
    (fun pairs ->
      let edges =
        List.map
          (fun (a, b) ->
            fact "edge" [ s (Printf.sprintf "v%d" a); s (Printf.sprintf "v%d" b) ])
          pairs
      in
      let p = Program.make_exn (tc_rules @ edges) in
      let db = Engine.materialize p (Database.create ()) in
      let tc = Engine.answers db (atom "tc" [ v "X"; v "Y" ]) in
      let mem x y = Database.mem db (atom "tc" [ x; y ]) in
      List.for_all
        (fun tup ->
          match tup with
          | [ x; y ] ->
            List.for_all
              (fun tup2 ->
                match tup2 with
                | [ y'; z ] -> (not (Term.equal y y')) || mem x z
                | _ -> false)
              tc
          | _ -> false)
        tc)

let suites =
  [
    ( "datalog.storage",
      [
        Alcotest.test_case "relation basics" `Quick test_relation_basics;
        Alcotest.test_case "lookup/select" `Quick test_relation_lookup_select;
        Alcotest.test_case "ground select" `Quick test_relation_ground_select;
        Alcotest.test_case "incremental index" `Quick test_relation_index_after_add;
        Alcotest.test_case "lookup after copy" `Quick test_relation_copy_lookup;
        Alcotest.test_case "database" `Quick test_database;
      ] );
    ( "datalog.stratify",
      [
        Alcotest.test_case "positive" `Quick test_stratify_positive;
        Alcotest.test_case "negation strata" `Quick test_stratify_negation;
        Alcotest.test_case "cycle detected" `Quick test_stratify_cycle_detected;
        Alcotest.test_case "aggregate edge" `Quick test_stratify_aggregate_edge;
        Alcotest.test_case "layers" `Quick test_stratify_layers;
      ] );
    ( "datalog.materialize",
      [
        Alcotest.test_case "tc chain" `Quick test_tc_chain;
        Alcotest.test_case "naive = seminaive" `Quick test_naive_equals_seminaive;
        Alcotest.test_case "seminaive cheaper" `Quick test_seminaive_cheaper;
        Alcotest.test_case "stratified negation" `Quick test_negation_stratified;
        Alcotest.test_case "count group-by" `Quick test_aggregate_count_group;
        Alcotest.test_case "count distinct" `Quick test_aggregate_count_distinct;
        Alcotest.test_case "sum/min/max/avg" `Quick test_aggregate_sum_min_max_avg;
        Alcotest.test_case "arith assign" `Quick test_arith_assign;
        Alcotest.test_case "skolem bound" `Quick test_skolem_bound;
      ] );
    ( "datalog.wellfounded",
      [
        Alcotest.test_case "win-move total" `Quick test_wellfounded_win_move;
        Alcotest.test_case "undefined 2-cycle" `Quick test_wellfounded_undefined_cycle;
        Alcotest.test_case "agrees with stratified" `Quick test_wellfounded_agrees_with_stratified;
        Alcotest.test_case "engine guard" `Quick test_engine_unstratified_guard;
        Alcotest.test_case "alternation counts" `Quick test_wellfounded_alternations;
        Alcotest.test_case "unsettled alternation" `Quick
          test_wellfounded_unsettled;
        Alcotest.test_case "late settling alternation" `Quick
          test_wellfounded_late_settle;
        Alcotest.test_case "loaded facts in a stratum" `Quick
          test_engine_loaded_facts_in_stratum;
      ] );
    ( "datalog.query",
      [
        Alcotest.test_case "conjunctive" `Quick test_query_conjunctive;
        Alcotest.test_case "negation + cmp" `Quick test_query_negation_and_cmp;
        QCheck_alcotest.to_alcotest prop_strategies_agree;
        QCheck_alcotest.to_alcotest prop_tc_transitive;
      ] );
    ( "datalog.kernel",
      [
        Alcotest.test_case "queries grow neither pool nor cache" `Quick
          test_query_grows_nothing;
        Alcotest.test_case "fully bound scans test membership" `Quick
          test_fully_bound_scan;
        Alcotest.test_case "counters pinned" `Quick test_kernel_counters_pinned;
      ] );
  ]
