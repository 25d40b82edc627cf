(* Tests for the later additions: incremental maintenance
   (Engine.maintain), the XSD plug-in, and relation accesses in the
   federated planner. *)

open Logic
open Datalog

let v = Term.var
let s = Term.sym
let atom p args = Atom.make p args
let rule h b = Rule.make h b
let fact p args = Rule.fact (atom p args)

(* -------------------------------------------------------------------- *)
(* Engine.maintain: additions *)

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

(* absorb additions into a materialization; the number of new facts *)
let add p db facts =
  Result.map
    (fun r -> r.Maintain.added)
    (Engine.maintain p db (Maintain.delta ~additions:facts ()))

let test_extend_equals_rebuild () =
  let p = Program.make_exn (tc_rules @ chain 8) in
  let db = Engine.materialize p (Database.create ()) in
  (* arrival of a new edge n8 -> n9 *)
  let new_fact = atom "edge" [ s "n8"; s "n9" ] in
  (match add p db [ new_fact ] with
  | Ok n -> Alcotest.(check bool) "derived something" true (n > 1)
  | Error e -> Alcotest.failf "maintain failed: %s" e);
  let rebuilt =
    Engine.materialize
      (Program.make_exn (tc_rules @ chain 8 @ [ Rule.fact new_fact ]))
      (Database.create ())
  in
  Alcotest.(check int) "same model as rebuild" (Database.cardinal rebuilt)
    (Database.cardinal db);
  Alcotest.(check bool) "closure reaches the new node" true
    (Database.mem db (atom "tc" [ s "n0"; s "n9" ]))

let test_extend_duplicate_is_noop () =
  let p = Program.make_exn (tc_rules @ chain 4) in
  let db = Engine.materialize p (Database.create ()) in
  let before = Database.cardinal db in
  (match add p db [ atom "edge" [ s "n0"; s "n1" ] ] with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "expected 0 new facts, got %d" n
  | Error e -> Alcotest.failf "maintain failed: %s" e);
  Alcotest.(check int) "unchanged" before (Database.cardinal db)

(* negation over the closure: additions to the negated closure block
   iso instances, and the result equals the rebuild *)
let test_extend_negation_equals_rebuild () =
  let p =
    Program.make_exn
      (tc_rules
      @ [
          rule (atom "iso" [ v "X" ])
            [ Literal.pos "node" [ v "X" ]; Literal.neg "tc" [ v "X"; v "X" ] ];
        ])
  in
  let db = Engine.materialize p (Database.create ()) in
  let base = ref [] in
  List.iter
    (fun facts ->
      (match add p db facts with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "maintain failed: %s" e);
      base := !base @ facts;
      Alcotest.(check bool) "maintained = rebuild" true
        (Database.equal (Engine.materialize p (Database.of_facts !base)) db))
    [
      [ atom "edge" [ s "a"; s "b" ]; atom "node" [ s "a" ]; atom "node" [ s "b" ] ];
      [ atom "edge" [ s "b"; s "a" ] ];
    ];
  Alcotest.(check bool) "the cycle ends the isolation" false
    (Database.mem db (atom "iso" [ s "a" ]))

(* property: maintain(facts) == materialize(program+facts) for random
   positive tc workloads added edge by edge *)
let prop_extend_incremental =
  QCheck.Test.make ~name:"incremental = from-scratch" ~count:40
    QCheck.(list_of_size Gen.(int_bound 15) (pair (int_bound 6) (int_bound 6)))
    (fun pairs ->
      let edges =
        List.map
          (fun (a, b) ->
            atom "edge" [ s (Printf.sprintf "v%d" a); s (Printf.sprintf "v%d" b) ])
          pairs
      in
      let p = Program.make_exn tc_rules in
      let db = Engine.materialize p (Database.create ()) in
      List.iter (fun e -> ignore (Result.get_ok (add p db [ e ]))) edges;
      let scratch =
        Engine.materialize
          (Program.make_exn (tc_rules @ List.map Rule.fact edges))
          (Database.create ())
      in
      Database.cardinal scratch = Database.cardinal db)

(* -------------------------------------------------------------------- *)
(* XSD plug-in *)

let xsd_doc =
  {|<xs:schema name="LAB">
      <xs:complexType name="Neuron">
        <xs:sequence>
          <xs:element name="organism" type="xs:string"/>
          <xs:element name="somaSize" type="xs:decimal"/>
        </xs:sequence>
      </xs:complexType>
      <xs:complexType name="Purkinje">
        <xs:complexContent><xs:extension base="Neuron"/></xs:complexContent>
      </xs:complexType>
      <xs:element name="neuron" type="Purkinje"/>
      <data>
        <neuron id="n1"><organism>rat</organism><somaSize>17.5</somaSize></neuron>
      </data>
    </xs:schema>|}

let test_xsd_plugin () =
  let reg = Cm_plugins.Defaults.registry () in
  Alcotest.(check bool) "registered" true
    (List.mem "xsd" (Cm_plugins.Plugin.formats reg));
  match Cm_plugins.Plugin.translate_string reg ~format:"xsd" xsd_doc with
  | Error e -> Alcotest.failf "xsd translation failed: %s" e
  | Ok tr ->
    let t =
      Flogic.Fl_program.make
        (Gcm.Schema.to_rules tr.Cm_plugins.Plugin.schema
        @ List.map Flogic.Molecule.fact tr.Cm_plugins.Plugin.facts)
    in
    let db = Flogic.Fl_program.run t in
    Alcotest.(check bool) "extension becomes subclass" true
      (Flogic.Fl_program.holds t db
         (Flogic.Molecule.sub (s "purkinje") (s "neuron")));
    Alcotest.(check bool) "instance typed and lifted" true
      (Flogic.Fl_program.holds t db (Flogic.Molecule.isa (s "n1") (s "neuron")));
    Alcotest.(check bool) "decimal value" true
      (Flogic.Fl_program.holds t db
         (Flogic.Molecule.meth_val (s "n1") "soma_size" (Term.float 17.5)))

let test_xsd_errors () =
  let reg = Cm_plugins.Defaults.registry () in
  let bad src =
    match Cm_plugins.Plugin.translate_string reg ~format:"xsd" src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected error for %s" src
  in
  bad "<notaschema/>";
  bad
    {|<xs:schema><data><mystery id="m1"/></data></xs:schema>|}

(* -------------------------------------------------------------------- *)
(* relation access in the planner *)

let rel_source () =
  let schema =
    Gcm.Schema.make ~name:"CONN"
      ~classes:[ Gcm.Schema.class_def "cell" ]
      ~relations:[ ("synapse", [ ("pre", "cell"); ("post", "cell") ]) ]
      ()
  in
  Wrapper.Source.make ~name:"CONN" ~schema
    ~capabilities:
      [
        Wrapper.Capability.scan_class "cell";
        Wrapper.Capability.bind_relation ~rel:"synapse"
          ~pattern:[ Wrapper.Capability.Bound; Wrapper.Capability.Free ];
        Wrapper.Capability.scan_relation "synapse";
      ]
    ~anchors:[ ("cell", "neuron", []) ]
    ~data:
      (List.concat_map
         (fun (a, b) ->
           [
             Flogic.Molecule.Isa (s a, s "cell");
             Flogic.Molecule.Isa (s b, s "cell");
             Flogic.Molecule.Rel_val ("synapse", [ ("pre", s a); ("post", s b) ]);
           ])
         [ ("c1", "c2"); ("c2", "c3"); ("c1", "c3") ])
    ()

let test_planner_relations () =
  let med = Mediation.Mediator.create Neuro.Anatom.full in
  (match Mediation.Mediator.register_source med (rel_source ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  match
    Mediation.Conjunctive.run_text med
      "?- X : 'CONN.cell', 'CONN.synapse'[pre -> X; post -> Y]."
  with
  | Error e -> Alcotest.failf "planner failed: %s" e
  | Ok (answers, report) ->
    Alcotest.(check int) "three synapses" 3 (List.length answers);
    Alcotest.(check bool) "CONN contacted" true
      (List.mem "CONN" report.Mediation.Conjunctive.sources_contacted)

let test_planner_relation_unqualified_rejected () =
  let med = Mediation.Mediator.create Neuro.Anatom.full in
  (match Mediation.Mediator.register_source med (rel_source ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  match
    Mediation.Conjunctive.run med
      [
        Flogic.Molecule.Pos
          (Flogic.Molecule.Rel_val ("synapse", [ ("pre", v "X") ]));
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unqualified relation must be refused"

let suites =
  [
    ( "extensions.incremental",
      [
        Alcotest.test_case "extend = rebuild" `Quick test_extend_equals_rebuild;
        Alcotest.test_case "duplicate noop" `Quick test_extend_duplicate_is_noop;
        Alcotest.test_case "maintained = rebuild" `Quick
          test_extend_negation_equals_rebuild;
        QCheck_alcotest.to_alcotest prop_extend_incremental;
      ] );
    ( "extensions.xsd",
      [
        Alcotest.test_case "translate" `Quick test_xsd_plugin;
        Alcotest.test_case "errors" `Quick test_xsd_errors;
      ] );
    ( "extensions.planner_relations",
      [
        Alcotest.test_case "binding patterns" `Quick test_planner_relations;
        Alcotest.test_case "unqualified rejected" `Quick
          test_planner_relation_unqualified_rejected;
      ] );
  ]
