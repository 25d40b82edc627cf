(* The cardinality/cost abstract interpretation (Analysis.Card) and the
   complexity-hazard pass (Analysis.Cost_lint).

   Soundness is also property-tested against the materialized model on
   random programs in Test_differential; here the exact arithmetic,
   the boundedness check, key inference and the seeded sample goldens
   are pinned. *)

open Logic
module Card = Analysis.Card
module Cost_lint = Analysis.Cost_lint
module D = Analysis.Diagnostic
module Engine = Datalog.Engine
module Database = Datalog.Database
module Program = Datalog.Program

let v = Term.var
let s = Term.sym

let iv lo hi = { Card.lo; hi }

let check_iv ctx expected got =
  Alcotest.(check (pair int (option int)))
    ctx
    (expected.Card.lo, expected.Card.hi)
    (got.Card.lo, got.Card.hi)

let edge a b = Rule.fact (Atom.make "e" [ s a; s b ])

(* ------------------------------------------------------------------ *)
(* Exact intervals on DAG programs                                     *)

let dag_exact () =
  let rules =
    [
      edge "a" "b";
      edge "b" "c";
      edge "c" "d";
      (* copy: |p| <= |e| *)
      Rule.make (Atom.make "p" [ v "X"; v "Y" ]) [ Literal.pos "e" [ v "X"; v "Y" ] ];
      (* projection: |q| <= distinct first columns of e *)
      Rule.make (Atom.make "q" [ v "X" ]) [ Literal.pos "e" [ v "X"; v "Y" ] ];
      (* key join: Y is a lookup into e's key column, not a scan *)
      Rule.make (Atom.make "j" [ v "X"; v "Z" ])
        [ Literal.pos "e" [ v "X"; v "Y" ]; Literal.pos "e" [ v "Y"; v "Z" ] ];
    ]
  in
  let res = Card.analyze rules in
  check_iv "facts are exact" (iv 3 (Some 3)) (Card.card res "e");
  check_iv "copy is bounded by the source" (iv 0 (Some 3)) (Card.card res "p");
  check_iv "projection bounded by distinct column values" (iv 0 (Some 3))
    (Card.card res "q");
  (* e's first column is a key (a, b, c all distinct), so the join
     degenerates to one probe per e-row *)
  Alcotest.(check bool) "e col 0 is a key" true (List.mem 0 (Card.keys res "e"));
  check_iv "key join stays linear" (iv 0 (Some 3)) (Card.card res "j");
  Alcotest.(check bool) "nothing here is unbounded" false
    (List.exists (fun p -> Card.unbounded res p) [ "e"; "p"; "q"; "j" ])

(* Key inference survives a copy but dies on a union *)
let key_inference () =
  let rules =
    [
      edge "a" "b";
      edge "b" "c";
      Rule.make (Atom.make "c1" [ v "X"; v "Y" ]) [ Literal.pos "e" [ v "X"; v "Y" ] ];
      Rule.make (Atom.make "u" [ v "X"; v "Y" ]) [ Literal.pos "e" [ v "X"; v "Y" ] ];
      Rule.make (Atom.make "u" [ v "Y"; v "X" ]) [ Literal.pos "e" [ v "X"; v "Y" ] ];
    ]
  in
  let res = Card.analyze rules in
  Alcotest.(check bool) "copy keeps the key" true
    (List.mem 0 (Card.keys res "c1"));
  Alcotest.(check (list int)) "union loses all keys" [] (Card.keys res "u")

(* ------------------------------------------------------------------ *)
(* Recursion: widening keeps tc finite, the boundedness check fires on
   value-synthesising recursion                                        *)

let recursion () =
  let rules =
    [
      edge "a" "b";
      edge "b" "c";
      edge "c" "d";
      Rule.make (Atom.make "tc" [ v "X"; v "Y" ]) [ Literal.pos "e" [ v "X"; v "Y" ] ];
      Rule.make (Atom.make "tc" [ v "X"; v "Z" ])
        [ Literal.pos "tc" [ v "X"; v "Y" ]; Literal.pos "e" [ v "Y"; v "Z" ] ];
      Rule.fact (Atom.make "g" [ s "z" ]);
      Rule.make (Atom.make "g" [ Term.app "f" [ v "X" ] ]) [ Literal.pos "g" [ v "X" ] ];
    ]
  in
  let res = Card.analyze rules in
  (* the true tc has 6 tuples; the widened bound must contain it and
     stay finite (no fresh values are synthesised) *)
  Alcotest.(check bool) "tc bound contains the actual closure" true
    (Card.contains (Card.card res "tc") 6);
  Alcotest.(check bool) "tc stays finite" false (Card.unbounded res "tc");
  Alcotest.(check bool) "skolem growth is unbounded" true
    (Card.unbounded res "g");
  let growing =
    List.exists
      (fun (_, (c : Card.rule_cost)) -> c.Card.growing)
      (Card.rule_costs res)
  in
  Alcotest.(check bool) "the growing rule is flagged" true growing

(* ------------------------------------------------------------------ *)
(* Seeds: open predicates are unbounded unless capped                  *)

let seeds_and_caps () =
  let rules =
    [ Rule.make (Atom.make "p" [ v "X" ]) [ Literal.pos "ext" [ v "X" ] ] ]
  in
  let open_pred p = String.equal p "ext" in
  let res = Card.analyze ~assume_nonempty:open_pred rules in
  Alcotest.(check bool) "uncapped open predicate is unbounded" true
    (Card.unbounded res "ext" && Card.unbounded res "p");
  let seed p = if String.equal p "ext" then Some (iv 0 (Some 42)) else None in
  let res = Card.analyze ~assume_nonempty:open_pred ~seed rules in
  check_iv "the cap flows through" (iv 0 (Some 42)) (Card.card res "p")

(* ------------------------------------------------------------------ *)
(* Cost model: cross products are counted, and a selective literal is
   pulled ahead of an unbounded scan                                   *)

let cost_model () =
  let rules =
    [
      edge "a" "b";
      edge "b" "c";
      Rule.fact (Atom.make "big" [ s "x"; s "y" ]);
      Rule.make
        (Atom.make "cross" [ v "X"; v "U" ])
        [ Literal.pos "e" [ v "X"; v "Y" ]; Literal.pos "big" [ v "U"; v "W" ] ];
    ]
  in
  let res = Card.analyze rules in
  let _, c =
    List.find
      (fun ((r : Rule.t), _) -> String.equal (Rule.head_pred r) "cross")
      (Card.rule_costs res)
  in
  (* |big| = 1, so the product cannot exceed one row per e-row: the
     hazard counter stays quiet (both sides must exceed one row) *)
  Alcotest.(check int) "1-row scan is not a cross product" 0
    c.Card.cross_products;
  let rules =
    rules @ [ Rule.fact (Atom.make "big" [ s "x2"; s "y2" ]) ]
  in
  let res = Card.analyze rules in
  let _, c =
    List.find
      (fun ((r : Rule.t), _) -> String.equal (Rule.head_pred r) "cross")
      (Card.rule_costs res)
  in
  Alcotest.(check int) "2x2 product is flagged" 1 c.Card.cross_products;
  check_iv "product bound multiplies" (iv 0 (Some 4)) c.Card.est

(* ------------------------------------------------------------------ *)
(* Cost_lint: codes, budget escalation, determinism                    *)

let lint_codes () =
  let rules =
    [
      edge "a" "b";
      edge "b" "c";
      edge "c" "d";
      Rule.make (Atom.make "cross" [ v "X"; v "U" ])
        [ Literal.pos "e" [ v "X"; v "Y" ]; Literal.pos "e" [ v "U"; v "W" ] ];
      Rule.fact (Atom.make "g" [ s "z" ]);
      Rule.make (Atom.make "g" [ Term.app "f" [ v "X" ] ]) [ Literal.pos "g" [ v "X" ] ];
    ]
  in
  let codes ds = List.sort_uniq compare (List.map (fun d -> d.D.code) ds) in
  let without = Cost_lint.lint rules in
  Alcotest.(check bool) "cross-product-join fires" true
    (List.mem "cross-product-join" (codes without));
  Alcotest.(check bool) "unbounded-growth fires" true
    (List.mem "unbounded-growth" (codes without));
  Alcotest.(check bool) "no budget, no over-budget" false
    (List.mem "over-budget" (codes without));
  let budgeted = Cost_lint.lint ~budget:5 rules in
  Alcotest.(check bool) "budget escalates to over-budget" true
    (List.mem "over-budget" (codes budgeted));
  Alcotest.(check bool) "over-budget is an error" true
    (List.exists
       (fun d -> d.D.code = "over-budget" && d.D.severity = D.Error)
       budgeted)

(* A bound that saturated at Card.huge is sound but says nothing: the
   reports print it as unbounded, never as the saturation value. *)
let saturated_bounds () =
  let rules =
    [
      Rule.make (Atom.make "pairs" [ v "X"; v "Y" ])
        [ Literal.pos "ext1" [ v "X" ]; Literal.pos "ext2" [ v "Y" ] ];
    ]
  in
  let open_pred p = p = "ext1" || p = "ext2" in
  let seed p = if open_pred p then Some (iv 0 (Some (1 lsl 40))) else None in
  let est = Card.card (Card.analyze ~assume_nonempty:open_pred ~seed rules) "pairs" in
  check_iv "the product saturates" (iv 0 (Some Card.huge)) est;
  Alcotest.(check (option int)) "no finite bound" None (Card.finite est.Card.hi);
  Alcotest.(check (option int)) "a real bound stays" (Some 42) (Card.finite (Some 42));
  Alcotest.(check string) "printed as unbounded" "[0, ∞]"
    (Format.asprintf "%a" Card.pp_interval est);
  let message code =
    match
      List.find_opt
        (fun d -> d.D.code = code)
        (Cost_lint.lint ~assume_nonempty:open_pred ~seed ~budget:100 rules)
    with
    | Some d -> d.D.message
    | None -> Alcotest.failf "no %s diagnostic" code
  in
  let ends_with suffix m =
    let n = String.length m and k = String.length suffix in
    n >= k && String.sub m (n - k) k = suffix
  in
  Alcotest.(check bool) "cross product: worst case unbounded" true
    (ends_with "(cross product); worst case unbounded"
       (message "cross-product-join"));
  Alcotest.(check string) "over budget: unbounded wording"
    "estimated result is unbounded; a budget of 100 is configured"
    (message "over-budget");
  Alcotest.(check bool) "blowup still reported, worst case unbounded" true
    (String.starts_with ~prefix:"worst-case result (unbounded) is super-linear"
       (message "super-linear-blowup"))

let normalize_deterministic () =
  let mk sev pass code msg =
    D.make ~severity:sev ~pass ~code
      ~location:(D.Rule { index = 1; text = "r"; pos = None })
      msg
  in
  let a = mk D.Warning "cost" "cross-product-join" "m1" in
  let b = mk D.Error "rules" "unsafe-rule" "m2" in
  let c = mk D.Warning "cost" "unbounded-growth" "m3" in
  let n = D.normalize [ c; a; b; a; c ] in
  Alcotest.(check int) "duplicates removed" 3 (List.length n);
  Alcotest.(check (list string)) "stable (location, pass, code) order"
    (List.map (fun d -> d.D.code) (D.normalize [ b; c; a ]))
    (List.map (fun d -> d.D.code) n)

(* ------------------------------------------------------------------ *)
(* Sample goldens: the seeded hazards in broken.flp fire through the
   kindlint pipeline; the clean sample stays silent                    *)

let read_sample name =
  let candidates =
    [
      Filename.concat "../samples" name;
      Filename.concat "samples" name;
      Filename.concat "../../samples" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "sample %s not found from %s" name (Sys.getcwd ())
  | Some path ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    src

let lint_sample ?budget name =
  let parsed = Flogic.Fl_parser.parse_program_exn (read_sample name) in
  let program =
    Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
      parsed.Flogic.Fl_parser.rules
  in
  Analysis.Kindlint.lint_program ?budget
    ~positions:parsed.Flogic.Fl_parser.rule_positions program

(* ------------------------------------------------------------------ *)
(* Card prices the order the engine runs, on every rule of the samples
   too. In q below that is a's three rows, then c keyed on X, then b
   keyed on Z: no cross product. Scanning b (two rows) and then a
   would be one, and no plan runs it.                                 *)

let check_engine_orders ctx rules =
  List.iter
    (fun ((r : Rule.t), (c : Card.rule_cost)) ->
      Alcotest.(check (option (list int)))
        (Printf.sprintf "%s: %s" ctx (Rule.to_string r))
        (Rule.order r) (Some c.Card.order))
    (Card.rule_costs (Card.analyze rules))

let engine_order () =
  let unary p n =
    List.init n (fun i ->
        Rule.fact (Atom.make p [ s (Printf.sprintf "%s%d" p i) ]))
  in
  let c =
    List.concat
      (List.init 3 (fun i ->
           List.init 3 (fun j ->
               Rule.fact
                 (Atom.make "c"
                    [ s (Printf.sprintf "a%d" i); s (Printf.sprintf "b%d" j) ]))))
  in
  let q =
    Rule.make
      (Atom.make "q" [ v "X"; v "Z" ])
      [
        Literal.pos "a" [ v "X" ];
        Literal.pos "b" [ v "Z" ];
        Literal.pos "c" [ v "X"; v "Z" ];
      ]
  in
  let rules = unary "a" 3 @ unary "b" 2 @ c @ [ q ] in
  check_engine_orders "engine order" rules;
  let c = List.assoc q (Card.rule_costs (Card.analyze rules)) in
  Alcotest.(check (list int)) "a, c on X, b on Z" [ 0; 2; 1 ] c.Card.order;
  Alcotest.(check int) "no cross product on that order" 0
    c.Card.cross_products;
  Alcotest.(check bool) "no cross-product-join warning" false
    (List.exists
       (fun d -> d.D.code = "cross-product-join")
       (Cost_lint.lint rules));
  List.iter
    (fun name ->
      let parsed = Flogic.Fl_parser.parse_program_exn (read_sample name) in
      check_engine_orders name
        (List.concat_map
           (Flogic.Compile.rule parsed.Flogic.Fl_parser.signature)
           parsed.Flogic.Fl_parser.rules))
    [ "spines.flp"; "broken.flp" ]

let cost_codes = [ "cross-product-join"; "unbounded-growth" ]

let broken_goldens () =
  let diags = lint_sample "broken.flp" in
  let codes = List.sort_uniq compare (List.map (fun d -> d.D.code) diags) in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "broken.flp trips %s" c)
        true (List.mem c codes))
    cost_codes;
  let hits code =
    List.filter_map
      (fun d ->
        match (d.D.code = code, d.D.location) with
        | true, D.Rule { text; _ } -> Some text
        | _ -> None)
      diags
  in
  Alcotest.(check bool) "hoard is the cross product" true
    (List.exists
       (fun t -> List.mem "hoard" (String.split_on_char '(' t))
       (hits "cross-product-join"));
  Alcotest.(check bool) "grown is the unbounded recursion" true
    (List.exists
       (fun t -> List.mem "grown" (String.split_on_char '(' t))
       (hits "unbounded-growth"));
  (* a small budget escalates the seeded blowups to reject level *)
  let budgeted = lint_sample ~budget:50 "broken.flp" in
  Alcotest.(check bool) "--budget escalates broken.flp" true
    (List.exists
       (fun d -> d.D.code = "over-budget" && d.D.severity = D.Error)
       budgeted)

let clean_goldens () =
  let diags = lint_sample "spines.flp" in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "spines.flp has no %s" c)
        false
        (List.exists (fun d -> d.D.code = c) diags))
    ("over-budget" :: cost_codes)

let suites =
  [
    ( "cost",
      [
        Alcotest.test_case "exact intervals on DAG programs" `Quick dag_exact;
        Alcotest.test_case "key inference" `Quick key_inference;
        Alcotest.test_case "widening vs the boundedness check" `Quick recursion;
        Alcotest.test_case "open predicates and seeded caps" `Quick
          seeds_and_caps;
        Alcotest.test_case "cross products in the cost model" `Quick cost_model;
        Alcotest.test_case "lint codes and budget escalation" `Quick lint_codes;
        Alcotest.test_case "saturated bounds print as unbounded" `Quick
          saturated_bounds;
        Alcotest.test_case "normalize is deterministic" `Quick
          normalize_deterministic;
        Alcotest.test_case "broken.flp cost goldens" `Quick broken_goldens;
        Alcotest.test_case "spines.flp stays cost-clean" `Quick clean_goldens;
        Alcotest.test_case "the order the engine runs" `Quick engine_order;
      ] );
  ]
