(* Tests for the logic kernel: terms, substitutions, unification,
   atoms, literals, rule safety. *)

open Logic

let term_testable = Alcotest.testable Term.pp Term.equal

let v = Term.var
let s = Term.sym
let i = Term.int
let f name args = Term.app name args

(* -------------------------------------------------------------------- *)
(* Term tests *)

let test_term_equal () =
  Alcotest.(check bool) "sym equal" true (Term.equal (s "a") (s "a"));
  Alcotest.(check bool) "sym/str differ" false (Term.equal (s "a") (Term.str "a"));
  Alcotest.(check bool) "app equal" true
    (Term.equal (f "f" [ s "a"; i 1 ]) (f "f" [ s "a"; i 1 ]));
  Alcotest.(check bool) "app arity differ" false
    (Term.equal (f "f" [ s "a" ]) (f "f" [ s "a"; s "a" ]))

let test_term_vars () =
  Alcotest.(check (list string))
    "vars in order, deduped" [ "X"; "Y" ]
    (Term.vars (f "f" [ v "X"; f "g" [ v "Y"; v "X" ] ]))

let test_term_ground () =
  Alcotest.(check bool) "const ground" true (Term.is_ground (i 3));
  Alcotest.(check bool) "var not ground" false (Term.is_ground (v "X"));
  Alcotest.(check bool) "nested" false
    (Term.is_ground (f "f" [ s "a"; f "g" [ v "Z" ] ]))

let test_term_depth_size () =
  Alcotest.(check int) "depth const" 1 (Term.depth (s "a"));
  Alcotest.(check int) "depth nested" 3 (Term.depth (f "f" [ f "g" [ s "a" ] ]));
  Alcotest.(check int) "size nested" 4
    (Term.size (f "f" [ f "g" [ s "a" ]; s "b" ]))

let test_term_app_empty () =
  Alcotest.check_raises "empty app rejected"
    (Invalid_argument "Term.app: empty argument list (use Term.sym)")
    (fun () -> ignore (Term.app "f" []))

let test_const_ordering () =
  let open Term in
  Alcotest.(check bool) "sym < str" true (compare_const (Sym "z") (Str "a") < 0);
  Alcotest.(check bool) "int < float" true
    (compare_const (Int 99) (Float 0.1) < 0)

(* Skolem chains that differ only in their innermost object (as
   assertion-mode domain-map axioms build them) must not share a pool
   bucket, or every new object makes interning slower. *)
let test_intern_deep_chains () =
  let chain k =
    List.fold_left
      (fun t fn -> f fn [ t ])
      (s (Printf.sprintf "chain_obj_%d" k))
      [ "f_e"; "f_d"; "f_c"; "f_b"; "f_a" ]
  in
  let before = (Intern.stats ()).longest_bucket in
  let ids = List.init 1000 (fun k -> Term.id (chain k)) in
  Alcotest.(check int) "distinct ids" 1000
    (List.length (List.sort_uniq Int.compare ids));
  Alcotest.(check bool) "ids read back" true
    (List.for_all2 (fun k i -> Term.equal (Term.of_id i) (chain k))
       (List.init 1000 Fun.id) ids);
  let after = (Intern.stats ()).longest_bucket in
  Alcotest.(check bool)
    (Printf.sprintf "longest bucket %d -> %d" before after)
    true (after < before + 50)

(* -------------------------------------------------------------------- *)
(* Substitution tests *)

let test_subst_apply () =
  let sub = Subst.bind "X" (s "a") Subst.empty in
  Alcotest.check term_testable "replaces bound var" (s "a")
    (Subst.apply sub (v "X"));
  Alcotest.check term_testable "leaves unbound var" (v "Y")
    (Subst.apply sub (v "Y"));
  Alcotest.check term_testable "descends into app"
    (f "f" [ s "a"; v "Y" ])
    (Subst.apply sub (f "f" [ v "X"; v "Y" ]))

let test_subst_idempotent () =
  (* bind Y after X->f(Y): X's range must be updated. *)
  let sub = Subst.bind "X" (f "f" [ v "Y" ]) Subst.empty in
  let sub = Subst.bind "Y" (s "b") sub in
  Alcotest.check term_testable "X normalised" (f "f" [ s "b" ])
    (Subst.apply sub (v "X"))

let test_subst_ground_fast_path () =
  (* The ground fast path in [bind] (all-ground substitution extended
     with a ground term skips re-normalization) must be invisible once
     non-ground bindings enter. Bind ground X via the fast path, then a
     non-ground range mentioning X: the new range must still resolve
     X. *)
  let sub = Subst.bind "X" (s "a") Subst.empty in
  let sub = Subst.bind "Y" (f "f" [ v "X"; v "Z" ]) sub in
  Alcotest.check term_testable "new range resolved against ground bindings"
    (f "f" [ s "a"; v "Z" ])
    (Subst.apply sub (v "Y"));
  (* grounding Z must normalise Y's range (slow path: sub is no longer
     all-ground, even though the bound term is ground) *)
  let sub = Subst.bind "Z" (s "b") sub in
  Alcotest.check term_testable "existing range normalised"
    (f "f" [ s "a"; s "b" ])
    (Subst.apply sub (v "Y"));
  (* back to an all-ground substitution: later fast-path binds must
     keep idempotency — no range may mention the new variable *)
  let sub = Subst.bind "W" (s "c") sub in
  List.iter
    (fun (x, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "range of %s is ground" x)
        true (Term.is_ground t))
    (Subst.bindings sub);
  Alcotest.check term_testable "apply is idempotent"
    (Subst.apply sub (f "g" [ v "X"; v "Y"; v "W" ]))
    (Subst.apply sub (Subst.apply sub (f "g" [ v "X"; v "Y"; v "W" ])))

let test_subst_rebind_conflict () =
  let sub = Subst.bind "X" (s "a") Subst.empty in
  (match Subst.bind "X" (s "b") sub with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* Rebinding to the same term is a no-op. *)
  let sub' = Subst.bind "X" (s "a") sub in
  Alcotest.(check bool) "same rebind ok" true (Subst.equal sub sub')

let test_subst_compose () =
  let s1 = Subst.bind "X" (f "f" [ v "Y" ]) Subst.empty in
  let s2 = Subst.bind "Y" (s "c") Subst.empty in
  let c = Subst.compose s1 s2 in
  Alcotest.check term_testable "compose pushes through" (f "f" [ s "c" ])
    (Subst.apply c (v "X"));
  Alcotest.check term_testable "keeps s2 bindings" (s "c")
    (Subst.apply c (v "Y"))

let test_subst_restrict () =
  let sub =
    Subst.bind "X" (s "a") (Subst.bind "Y" (s "b") Subst.empty)
  in
  let r = Subst.restrict [ "X" ] sub in
  Alcotest.(check int) "only one binding" 1 (Subst.cardinal r);
  Alcotest.(check bool) "keeps X" true (Subst.mem "X" r)

(* -------------------------------------------------------------------- *)
(* Unification tests *)

let unify_ok t1 t2 =
  match Unify.unify t1 t2 with
  | Some sub -> sub
  | None -> Alcotest.failf "expected %a ~ %a to unify" Term.pp t1 Term.pp t2

let test_unify_basic () =
  let sub = unify_ok (f "f" [ v "X"; s "b" ]) (f "f" [ s "a"; v "Y" ]) in
  Alcotest.check term_testable "X=a" (s "a") (Subst.apply sub (v "X"));
  Alcotest.check term_testable "Y=b" (s "b") (Subst.apply sub (v "Y"))

let test_unify_clash () =
  Alcotest.(check bool) "functor clash" true
    (Unify.unify (f "f" [ s "a" ]) (f "g" [ s "a" ]) = None);
  Alcotest.(check bool) "const clash" true
    (Unify.unify (s "a") (s "b") = None)

let test_unify_occurs () =
  Alcotest.(check bool) "occurs check" true
    (Unify.unify (v "X") (f "f" [ v "X" ]) = None)

let test_unify_chain () =
  (* X ~ Y then Y ~ a must give X = a. *)
  let sub = unify_ok (v "X") (v "Y") in
  let sub =
    match Unify.unify ~init:sub (v "Y") (s "a") with
    | Some s -> s
    | None -> Alcotest.fail "chain unify failed"
  in
  Alcotest.check term_testable "X resolved through Y" (s "a")
    (Subst.apply sub (v "X"))

let test_unify_produces_unifier =
  (* Property: when unify succeeds the substitution equalises the terms. *)
  let gen_term =
    let open QCheck.Gen in
    sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map Term.var (oneofl [ "X"; "Y"; "Z" ]);
            map Term.sym (oneofl [ "a"; "b"; "c" ]);
            map Term.int (int_bound 3);
          ]
      else
        frequency
          [
            (2, map Term.var (oneofl [ "X"; "Y"; "Z" ]));
            (2, map Term.sym (oneofl [ "a"; "b" ]));
            ( 3,
              map2
                (fun name args -> Term.app name args)
                (oneofl [ "f"; "g" ])
                (list_size (int_range 1 3) (self (n / 2))) );
          ])
  in
  let arb = QCheck.make ~print:Term.to_string gen_term in
  QCheck.Test.make ~name:"unify gives a unifier" ~count:500
    (QCheck.pair arb arb)
    (fun (t1, t2) ->
      match Unify.unify t1 t2 with
      | None -> QCheck.assume_fail ()
      | Some sub -> Term.equal (Subst.apply sub t1) (Subst.apply sub t2))

let test_matches_oneside () =
  let p = f "f" [ v "X"; s "b" ] in
  (match Unify.matches ~pattern:p (f "f" [ s "a"; s "b" ]) with
  | Some sub ->
    Alcotest.check term_testable "X bound" (s "a") (Subst.apply sub (v "X"))
  | None -> Alcotest.fail "match expected");
  Alcotest.(check bool) "subject vars only match themselves" true
    (Unify.matches ~pattern:(s "a") (v "X") = None)

let test_variant () =
  Alcotest.(check bool) "renaming is variant" true
    (Unify.variant (f "f" [ v "X"; v "Y" ]) (f "f" [ v "A"; v "B" ]));
  Alcotest.(check bool) "non-injective is not" false
    (Unify.variant (f "f" [ v "X"; v "Y" ]) (f "f" [ v "A"; v "A" ]));
  Alcotest.(check bool) "ground variant" true
    (Unify.variant (s "a") (s "a"))

(* -------------------------------------------------------------------- *)
(* Atom and literal tests *)

let test_atom_unify () =
  let a1 = Atom.make "p" [ v "X"; s "b" ] in
  let a2 = Atom.make "p" [ s "a"; v "Y" ] in
  (match Atom.unify a1 a2 with
  | Some _ -> ()
  | None -> Alcotest.fail "atoms should unify");
  Alcotest.(check bool) "pred mismatch" true
    (Atom.unify a1 (Atom.make "q" [ s "a"; s "b" ]) = None);
  Alcotest.(check bool) "arity mismatch" true
    (Atom.unify a1 (Atom.make "p" [ s "a" ]) = None)

let test_literal_binds_needs () =
  let open Literal in
  let l1 = pos "p" [ v "X"; v "Y" ] in
  Alcotest.(check (list string)) "pos binds" [ "X"; "Y" ] (binds l1);
  Alcotest.(check (list string)) "pos needs nothing" [] (needs l1);
  let l2 = neg "q" [ v "X" ] in
  Alcotest.(check (list string)) "neg binds nothing" [] (binds l2);
  Alcotest.(check (list string)) "neg needs X" [ "X" ] (needs l2);
  let l3 = cmp Lt (v "X") (i 5) in
  Alcotest.(check (list string)) "cmp needs X" [ "X" ] (needs l3);
  let l4 =
    count ~target:(v "A") ~group_by:[ v "B" ] ~result:(v "N")
      [ Atom.make "r" [ v "A"; v "B" ] ]
  in
  Alcotest.(check (list string)) "agg binds N,B" [ "N"; "B" ] (binds l4)

let test_eval_cmp () =
  let open Literal in
  Alcotest.(check (option bool)) "3 < 5" (Some true)
    (eval_cmp Lt (i 3) (i 5));
  Alcotest.(check (option bool)) "int/float mix" (Some true)
    (eval_cmp Le (i 3) (Term.float 3.0));
  Alcotest.(check (option bool)) "strings ordered" (Some true)
    (eval_cmp Lt (s "abc") (s "abd"));
  Alcotest.(check (option bool)) "heterogeneous rejected" None
    (eval_cmp Lt (i 3) (s "a"));
  Alcotest.(check (option bool)) "eq on distinct types" (Some false)
    (eval_cmp Eq (i 3) (s "a"));
  Alcotest.(check (option bool)) "non-ground rejected" None
    (eval_cmp Lt (v "X") (i 3))

let test_eval_expr () =
  let open Literal in
  Alcotest.(check (option string)) "int arith" (Some "7")
    (Option.map Term.to_string
       (eval_expr (Bin (Add, Leaf (i 3), Leaf (i 4)))));
  Alcotest.(check (option string)) "div by zero" None
    (Option.map Term.to_string (eval_expr (Bin (Div, Leaf (i 3), Leaf (i 0)))));
  Alcotest.(check (option string)) "mixed promotes to float" (Some "3.5")
    (Option.map Term.to_string
       (eval_expr (Bin (Add, Leaf (i 3), Leaf (Term.float 0.5)))))

(* -------------------------------------------------------------------- *)
(* Rule safety *)

let test_rule_safety () =
  let ok r =
    match Rule.check_safety r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "expected safe: %s" e
  in
  let bad r =
    match Rule.check_safety r with
    | Ok () -> Alcotest.failf "expected unsafe: %s" (Rule.to_string r)
    | Error _ -> ()
  in
  let p xs = Atom.make "p" xs and q xs = Literal.pos "q" xs in
  ok (Rule.make (p [ v "X" ]) [ q [ v "X" ] ]);
  bad (Rule.make (p [ v "X" ]) [ q [ v "Y" ] ]);
  (* negation needs prior binding *)
  bad (Rule.make (p [ v "X" ]) [ Literal.neg "q" [ v "X" ] ]);
  ok
    (Rule.make (p [ v "X" ])
       [ q [ v "X" ]; Literal.neg "r" [ v "X" ] ]);
  (* order independence: test literal before its binder *)
  ok
    (Rule.make (p [ v "X" ])
       [ Literal.cmp Literal.Lt (v "X") (i 5); q [ v "X" ] ]);
  (* assignment binds *)
  ok
    (Rule.make (p [ v "Y" ])
       [ q [ v "X" ]; Literal.assign (v "Y") (Literal.Leaf (v "X")) ]);
  (* aggregate result is bound *)
  ok
    (Rule.make (p [ v "N" ])
       [
         Literal.count ~target:(v "A") ~group_by:[] ~result:(v "N")
           [ Atom.make "r" [ v "A" ] ];
       ]);
  (* aggregate inner body must bind target *)
  bad
    (Rule.make (p [ v "N" ])
       [
         Literal.count ~target:(v "A") ~group_by:[] ~result:(v "N")
           [ Atom.make "r" [ v "B" ] ];
       ])

let test_rule_pp_roundtrip_shape () =
  let r =
    Rule.make
      (Atom.make "tc" [ v "X"; v "Y" ])
      [ Literal.pos "tc" [ v "X"; v "Z" ]; Literal.pos "e" [ v "Z"; v "Y" ] ]
  in
  Alcotest.(check string) "pp" "tc(X, Y) :- tc(X, Z), e(Z, Y)."
    (Rule.to_string r)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "logic.term",
      [
        Alcotest.test_case "equality" `Quick test_term_equal;
        Alcotest.test_case "vars" `Quick test_term_vars;
        Alcotest.test_case "groundness" `Quick test_term_ground;
        Alcotest.test_case "depth/size" `Quick test_term_depth_size;
        Alcotest.test_case "empty app" `Quick test_term_app_empty;
        Alcotest.test_case "const ordering" `Quick test_const_ordering;
        Alcotest.test_case "intern deep chains" `Quick test_intern_deep_chains;
      ] );
    ( "logic.subst",
      [
        Alcotest.test_case "apply" `Quick test_subst_apply;
        Alcotest.test_case "idempotence" `Quick test_subst_idempotent;
        Alcotest.test_case "ground fast path" `Quick
          test_subst_ground_fast_path;
        Alcotest.test_case "rebind conflict" `Quick test_subst_rebind_conflict;
        Alcotest.test_case "compose" `Quick test_subst_compose;
        Alcotest.test_case "restrict" `Quick test_subst_restrict;
      ] );
    ( "logic.unify",
      [
        Alcotest.test_case "basic" `Quick test_unify_basic;
        Alcotest.test_case "clash" `Quick test_unify_clash;
        Alcotest.test_case "occurs" `Quick test_unify_occurs;
        Alcotest.test_case "chained" `Quick test_unify_chain;
        Alcotest.test_case "matching" `Quick test_matches_oneside;
        Alcotest.test_case "variant" `Quick test_variant;
        QCheck_alcotest.to_alcotest test_unify_produces_unifier;
      ] );
    ( "logic.atom_literal",
      [
        Alcotest.test_case "atom unify" `Quick test_atom_unify;
        Alcotest.test_case "binds/needs" `Quick test_literal_binds_needs;
        Alcotest.test_case "eval_cmp" `Quick test_eval_cmp;
        Alcotest.test_case "eval_expr" `Quick test_eval_expr;
      ] );
    ( "logic.rule",
      [
        Alcotest.test_case "safety" `Quick test_rule_safety;
        Alcotest.test_case "printing" `Quick test_rule_pp_roundtrip_shape;
      ] );
  ]

let _ = qsuite
