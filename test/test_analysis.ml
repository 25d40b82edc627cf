(* kindlint: golden diagnostics for seeded defects, no-false-positive
   properties against the generators that Program.make/Stratify accept,
   clean-lint assertions over the shipped corpus, and the satellite
   regressions (ic_d witness path, Signature error messages). *)

open Logic
module A = Analysis
module D = Analysis.Diagnostic
module Molecule = Flogic.Molecule
module Program = Datalog.Program

let s = Term.sym
let v = Term.var

(* naive substring test — diagnostics are short *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let with_code c ds = List.filter (fun (d : D.t) -> String.equal d.D.code c) ds

let check_has_code msg c ds =
  Alcotest.(check bool) msg true (List.mem c (codes ds))

let parse_lint src =
  let parsed = Flogic.Fl_parser.parse_program_exn src in
  A.Kindlint.lint_program
    (Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
       parsed.Flogic.Fl_parser.rules)

(* ------------------------------------------------------------------ *)
(* Golden corruption 1: unsafe rule *)

let test_golden_unsafe () =
  let ds = parse_lint "suspicious(X, Y) :- X : spine." in
  match with_code "unsafe-rule" ds with
  | [ d ] ->
    Alcotest.(check bool) "severity" true (d.D.severity = D.Error);
    Alcotest.(check bool) "names the variable" true
      (String.length d.D.message >= 10
      && contains d.D.message "Y")
  | other ->
    Alcotest.failf "expected exactly one unsafe-rule, got %d with %s"
      (List.length other)
      (String.concat "," (codes ds))

(* ------------------------------------------------------------------ *)
(* Golden corruption 2: negative cycle, with the cycle spelled out *)

let test_golden_negative_cycle () =
  let rules =
    [
      Rule.make (Atom.make "win" [ v "X" ])
        [
          Literal.pos "move" [ v "X"; v "Y" ];
          Literal.neg "win" [ v "Y" ];
        ];
      Rule.make (Atom.make "move" [ s "a"; s "b" ]) [];
    ]
  in
  let p = Program.make_exn rules in
  (match A.Strat_lint.negative_cycle p with
  | None -> Alcotest.fail "expected a negative cycle"
  | Some cycle ->
    Alcotest.(check bool) "cycle closes on win" true
      (List.exists
         (fun (e : Datalog.Stratify.edge) ->
           e.Datalog.Stratify.nonmono
           && String.equal e.Datalog.Stratify.to_pred "win")
         cycle));
  let ds = A.Strat_lint.lint p in
  match with_code "negative-cycle" ds with
  | [ d ] ->
    Alcotest.(check bool) "warning: the engine falls back" true
      (d.D.severity = D.Warning);
    Alcotest.(check bool) "message prints the cycle" true
      (contains d.D.message "win" && contains d.D.message "-\xc2\xac->")
  | _ -> Alcotest.fail "expected exactly one negative-cycle diagnostic"

let test_negative_cycle_warning () =
  let p =
    Program.make_exn
      [
        Rule.make (Atom.make "p" [ v "X" ])
          [ Literal.pos "e" [ v "X" ]; Literal.neg "q" [ v "X" ] ];
        Rule.make (Atom.make "q" [ v "X" ])
          [ Literal.pos "e" [ v "X" ]; Literal.neg "p" [ v "X" ] ];
      ]
  in
  match with_code "negative-cycle" (A.Strat_lint.lint p) with
  | [ d ] -> Alcotest.(check bool) "warning" true (d.D.severity = D.Warning)
  | _ -> Alcotest.fail "expected one negative-cycle diagnostic"

(* ------------------------------------------------------------------ *)
(* Golden corruption 3: anchor at a dangling domain-map concept *)

let broken_anchor_source () =
  Wrapper.Source.make ~name:"LAB"
    ~schema:
      (Gcm.Schema.make ~name:"LAB"
         ~classes:
           [ Gcm.Schema.class_def "spine" ~methods:[ ("diameter", "number") ] ]
         ())
    ~anchors:[ ("spine", "no_such_concept", []) ]
    ~data:[ Molecule.Isa (s "s1", s "spine") ]
    ()

let test_golden_dangling_anchor () =
  let dm = Domain_map.Dmap.add_concept Domain_map.Dmap.empty "neuron" in
  let med = Mediation.Mediator.create dm in
  (* warn policy: registration succeeds, diagnostic lands in warnings *)
  (match Mediation.Mediator.register_source med (broken_anchor_source ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "warn policy must not reject: %s" e);
  Alcotest.(check bool) "warning recorded" true
    (List.exists
       (fun w -> contains w "no_such_concept")
       (Mediation.Mediator.translation_warnings med));
  let ds = Mediation.Lint.federation med in
  (match with_code "unknown-anchor-concept" ds with
  | [ d ] ->
    Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
    Alcotest.(check bool) "names source and concept" true
      (contains d.D.message "LAB" && contains d.D.message "no_such_concept")
  | _ -> Alcotest.fail "expected exactly one unknown-anchor-concept");
  (* reject policy: the same source is refused *)
  let med2 =
    Mediation.Mediator.create
      ~config:
        {
          Mediation.Mediator.default_config with
          Mediation.Mediator.lint = Mediation.Mediator.Lint_reject;
        }
      dm
  in
  match Mediation.Mediator.register_source med2 (broken_anchor_source ()) with
  | Ok () -> Alcotest.fail "reject policy must refuse the registration"
  | Error e ->
    Alcotest.(check bool) "rejection names the defect" true
      (contains e "unknown-anchor-concept")

(* ------------------------------------------------------------------ *)
(* Golden corruption 4: bound-argument-only relation, free variable *)

let bound_only_source () =
  Wrapper.Source.make ~name:"LAB"
    ~schema:
      (Gcm.Schema.make ~name:"LAB"
         ~classes:[ Gcm.Schema.class_def "spine" ]
         ~relations:
           [ ("has", [ ("whole", "thing"); ("part", "thing") ]) ]
         ())
    ~capabilities:
      [
        Wrapper.Capability.scan_class "spine";
        (* the wrapper answers has(whole, part) only with whole bound *)
        Wrapper.Capability.bind_relation ~rel:"has"
          ~pattern:[ Wrapper.Capability.Bound; Wrapper.Capability.Free ];
      ]
    ~anchors:[ ("spine", "neuron", []) ]
    ~data:[ Molecule.Isa (s "s1", s "spine") ]
    ()

let test_golden_infeasible_access () =
  let dm = Domain_map.Dmap.add_concept Domain_map.Dmap.empty "neuron" in
  let med = Mediation.Mediator.create dm in
  (match Mediation.Mediator.register_source med (bound_only_source ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* W is never bound by anything: no ordering can execute the access *)
  let infeasible =
    [
      Molecule.Pos
        (Molecule.Rel_val
           ("LAB.has", [ ("whole", v "W"); ("part", v "P") ]));
    ]
  in
  (match with_code "infeasible-access" (Mediation.Lint.query med infeasible) with
  | [ d ] ->
    Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
    Alcotest.(check bool) "names the free attribute" true
      (contains d.D.message "whole")
  | ds ->
    Alcotest.failf "expected exactly one infeasible-access, got %s"
      (String.concat "," (codes ds)));
  (* binding the argument first makes the same access feasible *)
  let feasible =
    [
      Molecule.Pos (Molecule.Isa (v "W", s "neuron"));
      Molecule.Pos
        (Molecule.Rel_val
           ("LAB.has", [ ("whole", v "W"); ("part", v "P") ]));
    ]
  in
  Alcotest.(check (list string))
    "feasible once W is bound" []
    (codes (D.errors (Mediation.Lint.query med feasible)))

(* ------------------------------------------------------------------ *)
(* More pass-level goldens *)

let test_rule_lint_details () =
  let ds =
    parse_lint
      "p(X) :- e(X).\n\
       p(X) :- e(X).\n\
       narrow(S) :- e(S), m(S, D).\n\
       e(a). m(a, b).\n\
       bad(X) :- e(X), ghost(X)."
  in
  check_has_code "duplicate" "duplicate-rule" ds;
  check_has_code "unused" "unused-variable" ds;
  check_has_code "undeclared" "undeclared-predicate" ds

let test_arity_mismatch () =
  let ds = parse_lint "@relation has(whole, part).\nbad(X) :- has(X)." in
  match with_code "arity-mismatch" ds with
  | [ d ] ->
    Alcotest.(check bool) "names the layout" true
      (contains d.D.message "whole")
  | _ -> Alcotest.fail "expected exactly one arity-mismatch"

(* Rule_lint's capped syntactic subsumption is retired: the semantic
   containment pass (Contain_lint) owns the verdict now. The syntactic
   check survives only as [Rule_lint.subsumes], kept as a differential
   oracle — whatever it catches, containment must catch too. *)
let test_subsumed_rule () =
  let general =
    Rule.make (Atom.make "p" [ v "X" ]) [ Literal.pos "e" [ v "X" ] ]
  in
  let specific =
    Rule.make
      (Atom.make "p" [ v "X" ])
      [ Literal.pos "e" [ v "X" ]; Literal.pos "f" [ v "X" ] ]
  in
  let rules =
    [
      general;
      specific;
      Rule.make (Atom.make "e" [ s "a" ]) [];
      Rule.make (Atom.make "f" [ s "a" ]) [];
    ]
  in
  Alcotest.(check int) "rule_lint no longer flags subsumption" 0
    (List.length (with_code "subsumed-rule" (A.Rule_lint.lint rules)));
  Alcotest.(check int) "containment pass flags it instead" 1
    (List.length (with_code "rule-implied-by-rule" (A.Contain_lint.lint rules)));
  (* differential: the retired syntactic oracle implies the semantic one *)
  Alcotest.(check bool) "syntactic subsumption still holds" true
    (A.Rule_lint.subsumes ~general ~specific);
  Alcotest.(check bool) "semantic containment agrees" true
    (A.Contain.contained A.Contain.empty_ctx specific general)

let test_dmap_lint_cycle () =
  let dm = Domain_map.Dmap.empty in
  let dm = Domain_map.Dmap.isa dm "a" "b" in
  let dm = Domain_map.Dmap.isa dm "b" "c" in
  let dm = Domain_map.Dmap.isa dm "c" "a" in
  (match A.Dmap_lint.isa_cycle dm with
  | Some cycle ->
    Alcotest.(check int) "cycle length" 4 (List.length cycle);
    Alcotest.(check string) "closed" (List.hd cycle)
      (List.nth cycle (List.length cycle - 1))
  | None -> Alcotest.fail "expected an isa cycle");
  check_has_code "isa-cycle" "isa-cycle" (A.Dmap_lint.lint dm);
  let acyclic = Domain_map.Dmap.isa Domain_map.Dmap.empty "a" "b" in
  Alcotest.(check bool) "acyclic map is clean" true
    (A.Dmap_lint.isa_cycle acyclic = None)

let test_dmap_lint_conflicts () =
  let dm = Domain_map.Dmap.isa Domain_map.Dmap.empty "a" "b" in
  let dm = Domain_map.Dmap.eqv dm "a" "b" in
  check_has_code "eqv+isa" "conflicting-eqv" (A.Dmap_lint.lint dm);
  (* the paper's own idiom must stay clean: eqv into an AND node *)
  let dm2 = Domain_map.Dmap.add_concepts Domain_map.Dmap.empty [ "n"; "sp" ] in
  let dm2, andn = Domain_map.Dmap.and_node dm2 [ "n"; "sp" ] in
  let dm2 = Domain_map.Dmap.eqv dm2 "spiny" andn in
  Alcotest.(check (list string)) "no conflict for eqv-to-AND" []
    (codes
       (List.filter
          (fun (d : D.t) -> d.D.severity <> D.Info)
          (A.Dmap_lint.lint dm2)))

let test_template_hygiene () =
  let info =
    A.Cap_lint.of_source
      (Wrapper.Source.make ~name:"LAB"
         ~schema:(Gcm.Schema.make ~name:"LAB" ())
         ~capabilities:
           [
             Wrapper.Capability.template ~name:"t1" ~params:[ "min"; "max" ]
               ~body:"X : spine, X[diameter ->> D], D > $min, D < $limit";
           ]
         ())
  in
  let ds = A.Cap_lint.lint_templates info in
  check_has_code "unused param" "unused-template-param" ds;
  check_has_code "unknown param" "unknown-template-param" ds

(* ------------------------------------------------------------------ *)
(* No false positives: whatever the generators build and the engine
   accepts, the linter must call safe and stratified. *)

let test_no_false_positives () =
  for seed = 0 to 39 do
    let st = Random.State.make [| 7919 * seed |] in
    let rules, _idb = Test_differential.gen_rules st in
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: no safety errors in %s" seed
             (Rule.to_string r))
          true
          (Rule.safety_errors r = []))
      rules;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: linter agrees the program is safe" seed)
      []
      (codes (with_code "unsafe-rule" (A.Rule_lint.lint rules)));
    let p = Program.make_exn rules in
    (* generator programs are stratified by construction *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: no cycle reported" seed)
      true
      (A.Strat_lint.negative_cycle p = None);
    (* and agreement with the engine's own verdict, both directions *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: agreement with Stratify" seed)
      (Datalog.Stratify.is_stratified p)
      (A.Strat_lint.negative_cycle p = None)
  done

(* ------------------------------------------------------------------ *)
(* Clean corpus: the demo federation and the shipped sample *)

let test_demo_federation_clean () =
  let med =
    Neuro.Sources.standard_mediator { Neuro.Sources.seed = 42; scale = 10 }
  in
  let ds = Mediation.Lint.federation med in
  Alcotest.(check (list string)) "no errors" [] (codes (D.errors ds))

let test_sample_clean () =
  (* keep in sync with samples/spines.flp; `dune build @lint` checks the
     file itself, this pins the library-level path *)
  let src =
    "spine :: ion_regulating_component.\n\
     spine[diameter => number].\n\
     s1 : spine. s1[diameter ->> 0.31].\n\
     @relation contains(spine, protein).\n\
     contains[spine -> s1; protein -> calbindin].\n\
     wide(S) :- S : spine, S[diameter ->> D], D > 0.5.\n\
     w_unmeasured(S) : ic :- S : spine, not measured(S).\n\
     measured(S) :- S[diameter ->> _D].\n"
  in
  let ds = parse_lint src in
  Alcotest.(check (list string)) "clean" []
    (codes (List.filter (fun (d : D.t) -> d.D.severity <> D.Info) ds))

(* ------------------------------------------------------------------ *)
(* Satellite: ic_d is the single witness path, agreeing with the legacy
   isa-encoded scan *)

let legacy_ic_members db =
  (* the pre-migration reading: ic_d plus ic members encoded as isa
     facts — kept here as the oracle for the migration *)
  let from_ic =
    Datalog.Database.facts db Flogic.Compile.ic_p
    |> List.filter_map (fun (a : Atom.t) ->
           match a.Atom.args with [ w ] -> Some w | _ -> None)
  in
  let from pred =
    Datalog.Database.facts db pred
    |> List.filter_map (fun (a : Atom.t) ->
           match a.Atom.args with
           | [ w; Term.Const (Term.Sym c) ]
             when String.equal c Flogic.Compile.ic_class -> Some w
           | _ -> None)
  in
  from_ic
  @ from (Flogic.Compile.declared Flogic.Compile.isa_p)
  @ from Flogic.Compile.isa_p
  |> List.sort_uniq Term.compare

let test_ic_migration_agrees () =
  let parsed =
    Flogic.Fl_parser.parse_program_exn
      "s1 : spine. s2 : spine.\n\
       s1[diameter ->> 0.3].\n\
       w_unmeasured(S) : ic :- S : spine, not measured(S).\n\
       measured(S) :- S[diameter ->> _D].\n"
  in
  let t =
    Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
      parsed.Flogic.Fl_parser.rules
  in
  let db = Flogic.Fl_program.run t in
  let ws = Flogic.Ic.violations db in
  Alcotest.(check int) "one witness" 1 (List.length ws);
  Alcotest.(check string) "the unmeasured spine" "w_unmeasured"
    (List.hd ws).Flogic.Ic.name;
  (* regression: the dedicated predicate reports exactly what the legacy
     combined scan reported *)
  Alcotest.(check (list string)) "old and new witness paths agree"
    (List.map Term.to_string (legacy_ic_members db))
    (List.map
       (fun (w : Flogic.Ic.witness) ->
         Term.to_string (Flogic.Ic.witness_term ~name:w.Flogic.Ic.name ~args:w.Flogic.Ic.args))
       ws)

(* ------------------------------------------------------------------ *)
(* Satellite: Signature error messages name relation and both layouts *)

let test_signature_messages () =
  let sg =
    Flogic.Signature.declare "has" [ "whole"; "part" ] Flogic.Signature.empty
  in
  (match
     Flogic.Signature.declare "has" [ "part"; "whole" ] sg
   with
  | exception Invalid_argument m ->
    List.iter
      (fun affix ->
        Alcotest.(check bool)
          (Printf.sprintf "declare message mentions %s" affix)
          true
          (contains m affix))
      [ "has"; "part,whole"; "whole,part" ]
  | _ -> Alcotest.fail "redeclaration must raise");
  let sg2 =
    Flogic.Signature.declare "has" [ "container"; "member" ]
      Flogic.Signature.empty
  in
  match Flogic.Signature.merge sg sg2 with
  | exception Invalid_argument m ->
    List.iter
      (fun affix ->
        Alcotest.(check bool)
          (Printf.sprintf "merge message mentions %s" affix)
          true
          (contains m affix))
      [ "has"; "whole,part"; "container,member" ]
  | _ -> Alcotest.fail "conflicting merge must raise"

(* ------------------------------------------------------------------ *)
(* JSON shape *)

let test_json_output () =
  let d =
    D.make ~severity:D.Error ~pass:"rules" ~code:"unsafe-rule"
      ~location:(D.Rule { index = 3; text = "p(X) :- q(\"a\\b\")."; pos = Some (7, 1) })
      "variable \"Y\" is not range-restricted" ~hint:"bind Y"
  in
  let j = D.to_json d in
  List.iter
    (fun affix ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" affix)
        true
        (contains j affix))
    [
      "\"severity\":\"error\"";
      "\"code\":\"unsafe-rule\"";
      "\"kind\":\"rule\"";
      "\"index\":3";
      "\\\"a\\\\b\\\"";
      "\"hint\":\"bind Y\"";
    ]

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "golden: unsafe rule" `Quick test_golden_unsafe;
        Alcotest.test_case "golden: negative cycle" `Quick
          test_golden_negative_cycle;
        Alcotest.test_case "negative cycle is a warning with fallback" `Quick
          test_negative_cycle_warning;
        Alcotest.test_case "golden: dangling anchor concept" `Quick
          test_golden_dangling_anchor;
        Alcotest.test_case "golden: infeasible access" `Quick
          test_golden_infeasible_access;
        Alcotest.test_case "rule lint details" `Quick test_rule_lint_details;
        Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
        Alcotest.test_case "subsumed rule" `Quick test_subsumed_rule;
        Alcotest.test_case "domain-map isa cycle" `Quick test_dmap_lint_cycle;
        Alcotest.test_case "domain-map edge conflicts" `Quick
          test_dmap_lint_conflicts;
        Alcotest.test_case "template hygiene" `Quick test_template_hygiene;
        Alcotest.test_case "no false positives" `Quick test_no_false_positives;
        Alcotest.test_case "demo federation lints clean" `Quick
          test_demo_federation_clean;
        Alcotest.test_case "sample program lints clean" `Quick
          test_sample_clean;
        Alcotest.test_case "ic_d migration agrees with legacy scan" `Quick
          test_ic_migration_agrees;
        Alcotest.test_case "signature error messages" `Quick
          test_signature_messages;
        Alcotest.test_case "diagnostic json" `Quick test_json_output;
      ] );
  ]
