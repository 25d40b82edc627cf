(* Tests for derivation explanations (why-provenance), DRed retraction,
   and the LAV inverse-rules demonstration. *)

open Logic
open Datalog

let v = Term.var
let s = Term.sym
let atom p args = Atom.make p args
let rule h b = Rule.make h b
let fact p args = Rule.fact (atom p args)

let tc_rules =
  [
    rule (atom "tc" [ v "X"; v "Y" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
    rule
      (atom "tc" [ v "X"; v "Y" ])
      [ Literal.pos "tc" [ v "X"; v "Z" ]; Literal.pos "edge" [ v "Z"; v "Y" ] ];
  ]

let chain n =
  List.init n (fun k ->
      fact "edge" [ s (Printf.sprintf "n%d" k); s (Printf.sprintf "n%d" (k + 1)) ])

(* -------------------------------------------------------------------- *)
(* Explain *)

let setup n =
  let p = Program.make_exn (tc_rules @ chain n) in
  let facts, rules_only = Program.split_facts p in
  let edb = Database.of_facts facts in
  let db = Engine.materialize p (Database.create ()) in
  (Program.make_exn (Program.rules rules_only), db, edb)

let test_explain_extensional () =
  let p, db, edb = setup 3 in
  match Explain.explain p db ~edb (atom "edge" [ s "n0"; s "n1" ]) with
  | Some { how = Explain.Extensional; _ } -> ()
  | _ -> Alcotest.fail "edge fact must be extensional"

let test_explain_derived () =
  let p, db, edb = setup 5 in
  match Explain.explain p db ~edb (atom "tc" [ s "n0"; s "n5" ]) with
  | None -> Alcotest.fail "tc(n0,n5) must be explainable"
  | Some proof ->
    (* the proof bottoms out in exactly the 5 chain edges *)
    let leaves =
      Explain.leaves proof |> List.map Atom.to_string |> List.sort_uniq compare
    in
    Alcotest.(check int) "five edges" 5 (List.length leaves);
    Alcotest.(check bool) "depth reflects recursion" true
      (Explain.depth proof >= 5);
    Alcotest.(check bool) "size sane" true (Explain.size proof >= 9)

let test_explain_absent () =
  let p, db, edb = setup 3 in
  Alcotest.(check bool) "non-fact unexplained" true
    (Explain.explain p db ~edb (atom "tc" [ s "n3"; s "n0" ]) = None)

let test_explain_negation () =
  let rules =
    [
      rule (atom "node" [ v "X" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
      rule (atom "node" [ v "Y" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
      rule
        (atom "sink" [ v "X" ])
        [ Literal.pos "node" [ v "X" ]; Literal.neg "has_out" [ v "X" ] ];
      rule (atom "has_out" [ v "X" ]) [ Literal.pos "edge" [ v "X"; v "Y" ] ];
    ]
  in
  let p_all = Program.make_exn (rules @ chain 2) in
  let facts, _ = Program.split_facts p_all in
  let edb = Database.of_facts facts in
  let db = Engine.materialize p_all (Database.create ()) in
  match Explain.explain (Program.make_exn rules) db ~edb (atom "sink" [ s "n2" ]) with
  | Some proof ->
    let rec has_absent t =
      match t.Explain.how with
      | Explain.Absent _ -> true
      | Explain.Rule { premises; _ } -> List.exists has_absent premises
      | _ -> false
    in
    Alcotest.(check bool) "absence recorded" true (has_absent proof)
  | None -> Alcotest.fail "sink(n2) must be explainable"

(* property: every derived tc fact has an explanation whose leaves are
   edges of the graph *)
let prop_explain_complete =
  QCheck.Test.make ~name:"every derived fact explainable" ~count:30
    QCheck.(list_of_size Gen.(int_bound 15) (pair (int_bound 6) (int_bound 6)))
    (fun pairs ->
      let edges =
        List.map
          (fun (a, b) ->
            fact "edge" [ s (Printf.sprintf "v%d" a); s (Printf.sprintf "v%d" b) ])
          pairs
      in
      let p_all = Program.make_exn (tc_rules @ edges) in
      let facts, rules_only = Program.split_facts p_all in
      let edb = Database.of_facts facts in
      let db = Engine.materialize p_all (Database.create ()) in
      let p = Program.make_exn (Program.rules rules_only) in
      Database.facts db "tc"
      |> List.for_all (fun f ->
             match Explain.explain p db ~edb f with
             | Some proof ->
               List.for_all
                 (fun leaf -> Database.mem edb leaf)
                 (Explain.leaves proof)
             | None -> false))

(* -------------------------------------------------------------------- *)
(* Retract (DRed, through Engine.maintain) *)

(* absorb deletions into a materialization; the number of facts gone *)
let retract p db facts =
  Result.map
    (fun r -> r.Maintain.removed)
    (Engine.maintain p db (Maintain.delta ~deletions:facts ()))

let test_retract_equals_rebuild () =
  let p = Program.make_exn (tc_rules @ chain 6) in
  let db = Engine.materialize p (Database.create ()) in
  (* cut the chain in the middle *)
  let cut = atom "edge" [ s "n3"; s "n4" ] in
  (match retract p db [ cut ] with
  | Ok gone -> Alcotest.(check bool) "facts disappeared" true (gone > 1)
  | Error e -> Alcotest.failf "retract failed: %s" e);
  let rebuilt =
    Engine.materialize
      (Program.make_exn
         (tc_rules @ List.filter (fun r -> r.Rule.head <> cut) (chain 6)))
      (Database.create ())
  in
  Alcotest.(check int) "same model as rebuild" (Database.cardinal rebuilt)
    (Database.cardinal db);
  Alcotest.(check bool) "long closure gone" false
    (Database.mem db (atom "tc" [ s "n0"; s "n6" ]));
  Alcotest.(check bool) "prefix closure survives" true
    (Database.mem db (atom "tc" [ s "n0"; s "n3" ]))

let test_retract_rederives () =
  (* diamond: two paths a->d; removing one edge must keep tc(a,d) *)
  let edges =
    [ fact "edge" [ s "a"; s "b" ]; fact "edge" [ s "b"; s "d" ];
      fact "edge" [ s "a"; s "c" ]; fact "edge" [ s "c"; s "d" ] ]
  in
  let p = Program.make_exn (tc_rules @ edges) in
  let db = Engine.materialize p (Database.create ()) in
  (match retract p db [ atom "edge" [ s "b"; s "d" ] ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retract failed: %s" e);
  Alcotest.(check bool) "tc(a,d) rederived via c" true
    (Database.mem db (atom "tc" [ s "a"; s "d" ]));
  Alcotest.(check bool) "tc(b,d) gone" false
    (Database.mem db (atom "tc" [ s "b"; s "d" ]))

(* negation over the closure: cutting the cycle removes tc facts read
   under negation, which unblocks iso(a); the result equals the
   rebuild *)
let test_retract_negation_equals_rebuild () =
  let rules =
    tc_rules
    @ [
        rule (atom "iso" [ v "X" ])
          [ Literal.pos "node" [ v "X" ]; Literal.neg "tc" [ v "X"; v "X" ] ];
      ]
  in
  let base =
    [ atom "node" [ s "a" ]; atom "edge" [ s "a"; s "b" ]; atom "edge" [ s "b"; s "a" ] ]
  in
  let p = Program.make_exn rules in
  let db = Engine.materialize p (Database.of_facts base) in
  let cut = atom "edge" [ s "a"; s "b" ] in
  (match retract p db [ cut ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "retract failed: %s" e);
  Alcotest.(check bool) "maintained = rebuild" true
    (Database.equal
       (Engine.materialize p
          (Database.of_facts (List.filter (fun f -> f <> cut) base)))
       db);
  Alcotest.(check bool) "a isolated once the cycle is cut" true
    (Database.mem db (atom "iso" [ s "a" ]))

let prop_retract_incremental =
  QCheck.Test.make ~name:"retract = rebuild without the fact" ~count:40
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 15) (pair (int_bound 5) (int_bound 5)))
        (int_bound 20))
    (fun (pairs, pick) ->
      let edges =
        List.sort_uniq compare
          (List.map
             (fun (a, b) ->
               (Printf.sprintf "v%d" a, Printf.sprintf "v%d" b))
             pairs)
      in
      let victim = List.nth edges (pick mod List.length edges) in
      let p =
        Program.make_exn
          (tc_rules @ List.map (fun (a, b) -> fact "edge" [ s a; s b ]) edges)
      in
      let db = Engine.materialize p (Database.create ()) in
      (match retract p db [ atom "edge" [ s (fst victim); s (snd victim) ] ] with
      | Ok _ -> ()
      | Error e -> failwith e);
      let rebuilt =
        Engine.materialize
          (Program.make_exn
             (tc_rules
             @ List.filter_map
                 (fun (a, b) ->
                   if (a, b) = victim then None else Some (fact "edge" [ s a; s b ]))
                 edges))
          (Database.create ())
      in
      Database.cardinal rebuilt = Database.cardinal db)

(* -------------------------------------------------------------------- *)
(* LAV inverse rules *)

let test_lav_invert_and_answer () =
  (* LAV source: v(X,Z) := e(X,Y), e(Y,Z) — stores 2-paths of a global
     edge relation. *)
  let view =
    Result.get_ok
      (Mediation.Lav.view ~name:"v"
         (rule
            (atom "q" [ v "X"; v "Z" ])
            [ Literal.pos "e" [ v "X"; v "Y" ]; Literal.pos "e" [ v "Y"; v "Z" ] ]))
  in
  let inv = Mediation.Lav.invert view in
  Alcotest.(check int) "one inverse rule per body atom" 2 (List.length inv);
  (* extension: v(a,c), v(c,e) *)
  let ext =
    Database.of_facts [ atom "v" [ s "a"; s "c" ]; atom "v" [ s "c"; s "e" ] ]
  in
  (* certain answers about the global e relation: none are skolem-free
     (the midpoints are unknown)... *)
  Alcotest.(check int) "no certain e facts" 0
    (List.length (Mediation.Lav.answer ~views:[ view ] ~extensions:ext (atom "e" [ v "X"; v "Y" ])));
  (* ...but 2-path-composed queries do have certain answers: add the
     query as a rule over the reconstructed e. *)
  let rules =
    Mediation.Lav.invert view
    @ [
        rule (atom "q2" [ v "X"; v "Z" ])
          [ Literal.pos "e" [ v "X"; v "Y" ]; Literal.pos "e" [ v "Y"; v "Z" ] ];
      ]
  in
  let db = Engine.materialize (Program.make_exn rules) ext in
  Alcotest.(check bool) "q2(a,c) certain" true
    (Database.mem db (atom "q2" [ s "a"; s "c" ]))

let test_lav_obstacles () =
  let fl = Flogic.Fl_parser.parse_program_exn in
  let first src = List.hd (fl src).Flogic.Fl_parser.rules in
  Alcotest.(check (option string)) "plain CQ view ok" None
    (Mediation.Lav.inversion_obstacle (first "view(X, P) :- prot(X, P)."));
  (match
     Mediation.Lav.inversion_obstacle
       (first "pd(X, P) :- has_a_star(X, Y), prot(Y, P).")
   with
  | Some reason ->
    Alcotest.(check bool) "names the recursion" true
      (String.length reason > 0)
  | None -> Alcotest.fail "recursive DM view must be flagged");
  (match
     Mediation.Lav.inversion_obstacle
       (first "total(W, N) :- N = count{P [W]; has(W, P)}.")
   with
  | Some _ -> ()
  | None -> Alcotest.fail "aggregate view must be flagged");
  match
    Mediation.Lav.inversion_obstacle
      (first "clean(X) :- obj(X), not dirty(X).")
  with
  | Some _ -> ()
  | None -> Alcotest.fail "negation must be flagged"

(* Lav.view takes only a conjunctive query *)
let test_lav_view_refusals () =
  let refused label head body =
    match Mediation.Lav.view ~name:"v" (rule head body) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  let e = Literal.pos "e" [ v "X"; v "Y" ] in
  refused "head variable missing from the body" (atom "q" [ v "Z" ]) [ e ];
  refused "empty body" (atom "q" [ v "X" ]) [];
  refused "function symbol in the head"
    (atom "q" [ Term.app "f" [ v "X" ] ])
    [ e ];
  refused "function symbol in the body" (atom "q" [ v "X" ])
    [ Literal.pos "e" [ v "X"; Term.app "f" [ v "Y" ] ] ];
  refused "negated literal" (atom "q" [ v "X" ])
    [ e; Literal.neg "d" [ v "X" ] ];
  refused "comparison" (atom "q" [ v "X" ])
    [ e; Literal.cmp Literal.Lt (v "X") (v "Y") ];
  refused "builtin" (atom "q" [ v "X" ])
    [ e; Literal.pos "builtin:is_const" [ v "X" ] ];
  Alcotest.(check bool) "a plain CQ is accepted" true
    (Result.is_ok (Mediation.Lav.view ~name:"v" (rule (atom "q" [ v "X" ]) [ e ])))

let suites =
  [
    ( "provenance.explain",
      [
        Alcotest.test_case "extensional" `Quick test_explain_extensional;
        Alcotest.test_case "derived" `Quick test_explain_derived;
        Alcotest.test_case "absent" `Quick test_explain_absent;
        Alcotest.test_case "negation" `Quick test_explain_negation;
        QCheck_alcotest.to_alcotest prop_explain_complete;
      ] );
    ( "provenance.retract",
      [
        Alcotest.test_case "retract = rebuild" `Quick test_retract_equals_rebuild;
        Alcotest.test_case "rederivation" `Quick test_retract_rederives;
        Alcotest.test_case "maintained = rebuild" `Quick
          test_retract_negation_equals_rebuild;
        QCheck_alcotest.to_alcotest prop_retract_incremental;
      ] );
    ( "provenance.lav",
      [
        Alcotest.test_case "invert and answer" `Quick test_lav_invert_and_answer;
        Alcotest.test_case "obstacles (paper's Discussion)" `Quick test_lav_obstacles;
        Alcotest.test_case "view refusals" `Quick test_lav_view_refusals;
      ] );
  ]
