(* Tests for the wrapper layer: stores, capabilities, sources. *)

open Wrapper
module Molecule = Flogic.Molecule

let s = Logic.Term.sym
let f = Logic.Term.float

let sg = Flogic.Signature.declare "has" [ "whole"; "part" ] Flogic.Signature.empty

(* -------------------------------------------------------------------- *)
(* Store *)

let sample_store () =
  let st = Store.create ~signature:sg () in
  Store.add_instance st (s "s1") ~cls:"spine";
  Store.add_instance st (s "s2") ~cls:"spine";
  Store.add_value st (s "s1") ~meth:"diameter" (f 0.3);
  Store.add_value st (s "s2") ~meth:"diameter" (f 0.8);
  Store.add_tuple st ~rel:"has" [ ("whole", s "d1"); ("part", s "s1") ];
  Store.add_tuple st ~rel:"has" [ ("whole", s "d1"); ("part", s "s2") ];
  st

let test_store_instances () =
  let st = sample_store () in
  Alcotest.(check int) "all spines" 2
    (List.length (Store.instances st ~cls:"spine" ~selections:[]));
  let wide =
    Store.instances st ~cls:"spine"
      ~selections:[ ("diameter", Logic.Literal.Gt, f 0.5) ]
  in
  (match wide with
  | [ o ] -> Alcotest.(check bool) "s2 selected" true (Logic.Term.equal o.Store.id (s "s2"))
  | _ -> Alcotest.fail "expected one wide spine");
  Alcotest.(check int) "counts" 2 (Store.object_count st ~cls:"spine");
  Alcotest.(check int) "tuples" 2 (Store.tuple_count st ~rel:"has")

let test_store_tuples () =
  let st = sample_store () in
  Alcotest.(check int) "pattern match" 2
    (List.length (Store.tuples st ~rel:"has" ~pattern:[ ("whole", s "d1") ]));
  Alcotest.(check int) "bound part" 1
    (List.length (Store.tuples st ~rel:"has" ~pattern:[ ("part", s "s1") ]));
  Alcotest.check_raises "unknown relation"
    (Invalid_argument "Store.add_tuple: unknown relation nope") (fun () ->
      Store.add_tuple st ~rel:"nope" [ ("a", s "x") ]);
  Alcotest.check_raises "missing attribute"
    (Invalid_argument "Store.add_tuple: has is missing attribute part")
    (fun () -> Store.add_tuple st ~rel:"has" [ ("whole", s "x") ])

(* -------------------------------------------------------------------- *)
(* Capabilities *)

let caps =
  [
    Capability.scan_class "spine";
    Capability.select_class ~cls:"spine" ~on:[ "diameter" ];
    Capability.bind_relation ~rel:"has"
      ~pattern:[ Capability.Bound; Capability.Free ];
    Capability.template ~name:"wide" ~params:[ "min" ]
      ~body:"X : spine, X[diameter ->> D], D > $min";
  ]

let test_capability_checks () =
  Alcotest.(check bool) "scan spine" true (Capability.can_scan_class caps "spine");
  Alcotest.(check bool) "no scan dendrite" false
    (Capability.can_scan_class caps "dendrite");
  Alcotest.(check (list string)) "pushable" [ "diameter" ]
    (Capability.pushable_selections caps ~cls:"spine");
  Alcotest.(check bool) "bf admitted" true
    (Capability.admits_pattern caps ~rel:"has" ~bound:[ true; false ]);
  Alcotest.(check bool) "bb admitted (stronger)" true
    (Capability.admits_pattern caps ~rel:"has" ~bound:[ true; true ]);
  Alcotest.(check bool) "ff rejected" false
    (Capability.admits_pattern caps ~rel:"has" ~bound:[ false; false ]);
  Alcotest.(check bool) "template found" true
    (Capability.find_template caps "wide" <> None)

(* -------------------------------------------------------------------- *)
(* Source *)

let spine_schema =
  Gcm.Schema.make ~name:"LAB"
    ~classes:[ Gcm.Schema.class_def "spine" ~methods:[ ("diameter", "number") ] ]
    ~relations:[ ("has", [ ("whole", "thing"); ("part", "thing") ]) ]
    ()

let sample_source ?capabilities () =
  Source.make ~name:"LAB" ~schema:spine_schema ?capabilities
    ~anchors:[ ("spine", "spine", []) ]
    ~data:
      [
        Molecule.Isa (s "s1", s "spine");
        Molecule.Meth_val (s "s1", "diameter", f 0.3);
        Molecule.Isa (s "s2", s "spine");
        Molecule.Meth_val (s "s2", "diameter", f 0.8);
        Molecule.Rel_val ("has", [ ("whole", s "d1"); ("part", s "s1") ]);
      ]
    ()

let test_source_fetch_scan () =
  let src = sample_source () in
  (* default capabilities: scan everything, push nothing *)
  Alcotest.(check int) "scan" 2
    (List.length (Source.fetch_instances src ~cls:"spine" ~selections:[]));
  (match
     Source.fetch_instances src ~cls:"spine"
       ~selections:[ ("diameter", Logic.Literal.Gt, f 0.5) ]
   with
  | exception Source.Unsupported _ -> ()
  | _ -> Alcotest.fail "default caps must not push selections");
  match Source.fetch_instances src ~cls:"nope" ~selections:[] with
  | exception Source.Unsupported _ -> ()
  | _ -> Alcotest.fail "unknown class must be refused"

let test_source_fetch_select () =
  let src =
    sample_source
      ~capabilities:
        [
          Capability.scan_class "spine";
          Capability.select_class ~cls:"spine" ~on:[ "diameter" ];
          Capability.scan_relation "has";
        ]
      ()
  in
  Alcotest.(check int) "pushed selection" 1
    (List.length
       (Source.fetch_instances src ~cls:"spine"
          ~selections:[ ("diameter", Logic.Literal.Gt, f 0.5) ]));
  Alcotest.(check int) "tuples" 1
    (List.length (Source.fetch_tuples src ~rel:"has" ~pattern:[]));
  (* meter counts shipped rows *)
  Alcotest.(check int) "meter tuples" 2 (Source.served src).Source.tuples;
  Alcotest.(check int) "meter requests" 2 (Source.served src).Source.requests;
  Source.reset_meter src;
  Alcotest.(check int) "meter reset" 0 (Source.served src).Source.tuples

let test_source_binding_pattern () =
  let src =
    sample_source
      ~capabilities:
        [
          Capability.bind_relation ~rel:"has"
            ~pattern:[ Capability.Bound; Capability.Free ];
        ]
      ()
  in
  Alcotest.(check int) "bf access" 1
    (List.length (Source.fetch_tuples src ~rel:"has" ~pattern:[ ("whole", s "d1") ]));
  match Source.fetch_tuples src ~rel:"has" ~pattern:[] with
  | exception Source.Unsupported _ -> ()
  | _ -> Alcotest.fail "ff access must be refused"

let test_source_template () =
  let src =
    sample_source
      ~capabilities:
        [
          Capability.template ~name:"wide" ~params:[ "min" ]
            ~body:"X : spine, X[diameter ->> D], D > $min";
        ]
      ()
  in
  let answers = Source.run_template src ~name:"wide" ~args:[ ("min", f 0.5) ] in
  Alcotest.(check int) "one wide spine" 1 (List.length answers);
  (match Source.run_template src ~name:"wide" ~args:[] with
  | exception Source.Unsupported _ -> ()
  | _ -> Alcotest.fail "missing arg must be refused");
  match Source.run_template src ~name:"nope" ~args:[] with
  | exception Source.Unsupported _ -> ()
  | _ -> Alcotest.fail "unknown template must be refused"

(* Each placeholder is replaced as a whole token: [$loc] must not
   rewrite the prefix of [$loc2], whatever order the arguments come in. *)
let test_template_placeholder_prefix () =
  let schema =
    Gcm.Schema.make ~name:"OBS"
      ~classes:
        [ Gcm.Schema.class_def "obs" ~methods:[ ("loc", "thing"); ("loc2", "thing") ] ]
      ()
  in
  let src =
    Source.make ~name:"OBS" ~schema
      ~capabilities:
        [
          Capability.template ~name:"at" ~params:[ "loc"; "loc2" ]
            ~body:"X : obs, X[loc ->> $loc], X[loc2 ->> $loc2]";
        ]
      ~data:
        [
          Molecule.Isa (s "o1", s "obs");
          Molecule.Meth_val (s "o1", "loc", s "spine");
          Molecule.Meth_val (s "o1", "loc2", s "dendrite");
        ]
      ()
  in
  let loc = ("loc", s "spine") and loc2 = ("loc2", s "dendrite") in
  Alcotest.(check int) "loc first" 1
    (List.length (Source.run_template src ~name:"at" ~args:[ loc; loc2 ]));
  Alcotest.(check int) "loc2 first" 1
    (List.length (Source.run_template src ~name:"at" ~args:[ loc2; loc ]));
  (* spliced text is never rescanned: an argument that prints like a
     placeholder stays literal *)
  Alcotest.(check string) "one pass" "a = $y, b = 2"
    (Capability.instantiate "a = $x, b = $y" (function
      | "x" -> Some "$y"
      | "y" -> Some "2"
      | _ -> None));
  Alcotest.(check (list string)) "placeholders" [ "loc"; "loc2" ]
    (Capability.placeholders "X[loc ->> $loc], X[loc2 ->> $loc2], $ alone, $loc")

(* Store reads use the database's relation indexes; they must return
   exactly what the one-literal engine query they replaced returned, in
   the same order, on the Neuro labs and the distractors. *)
let test_store_reads_match_engine () =
  let module Engine = Datalog.Engine in
  let isa_d = Flogic.Compile.declared Flogic.Compile.isa_p in
  let meth_val_d = Flogic.Compile.declared Flogic.Compile.meth_val_p in
  let v = Logic.Term.var in
  let params = { Neuro.Sources.seed = 1; scale = 20 } in
  let objs = Alcotest.(list (pair string (list (pair string string)))) in
  let show (o : Store.obj) =
    ( Logic.Term.to_string o.Store.id,
      List.map (fun (m, t) -> (m, Logic.Term.to_string t)) o.Store.values )
  in
  List.iter
    (fun src ->
      let store = Source.store src in
      let db = Store.database store in
      let values_of id =
        Engine.answers db (Logic.Atom.make meth_val_d [ id; v "M"; v "V" ])
        |> List.filter_map (function
             | [ _; m; t ] -> Option.map (fun m -> (m, t)) (Logic.Term.as_string m)
             | _ -> None)
      in
      let members cls =
        Engine.answers db (Logic.Atom.make isa_d [ v "X"; s cls ])
        |> List.filter_map (function [ id; _ ] -> Some id | _ -> None)
      in
      let reference cls sels =
        List.filter_map
          (fun id ->
            let values = values_of id in
            let holds (m, op, rhs) =
              List.exists
                (fun (m', t) ->
                  m = m' && Logic.Literal.eval_cmp op t rhs = Some true)
                values
            in
            if List.for_all holds sels then Some { Store.id; values } else None)
          (members cls)
      in
      let classes =
        Engine.answers db (Logic.Atom.make isa_d [ v "X"; v "C" ])
        |> List.filter_map (function
             | [ _; c ] -> Logic.Term.as_string c
             | _ -> None)
        |> List.sort_uniq String.compare
      in
      let name = Source.name src in
      Alcotest.(check (list string)) (name ^ ": classes") classes (Store.classes store);
      List.iter
        (fun cls ->
          Alcotest.(check int) (name ^ ": object_count " ^ cls)
            (List.length (members cls)) (Store.object_count store ~cls);
          let all = reference cls [] in
          Alcotest.check objs (name ^ ": " ^ cls) (List.map show all)
            (List.map show (Store.instances store ~cls ~selections:[]));
          (* selections drawn from the first object's values: an
             equality, and an order comparison that keeps some objects *)
          match all with
          | [] -> ()
          | first :: _ ->
            List.iter
              (fun (m, t) ->
                List.iter
                  (fun op ->
                    let sels = [ (m, op, t) ] in
                    Alcotest.check objs
                      (Printf.sprintf "%s: %s where %s" name cls m)
                      (List.map show (reference cls sels))
                      (List.map show (Store.instances store ~cls ~selections:sels)))
                  [ Logic.Literal.Eq; Logic.Literal.Ge ])
              first.Store.values)
        ("no_such_class" :: classes))
    ([ Neuro.Sources.synapse params; Neuro.Sources.ncmir params; Neuro.Sources.senselab params ]
    @ List.init 5 (fun i -> Neuro.Sources.distractor params ~index:(i + 1)))

let test_source_export_xml () =
  let src = sample_source () in
  let doc = Source.export_xml src in
  (* re-import through the plug-in machinery *)
  let reg = Cm_plugins.Defaults.registry () in
  match Cm_plugins.Plugin.translate reg ~format:"gcm-xml" doc with
  | Error e -> Alcotest.failf "re-import failed: %s" e
  | Ok tr ->
    Alcotest.(check (list string)) "classes survive the wire" [ "spine" ]
      (Gcm.Schema.class_names tr.Cm_plugins.Plugin.schema);
    Alcotest.(check int) "facts survive the wire" 5
      (List.length tr.Cm_plugins.Plugin.facts);
    Alcotest.(check bool) "anchors survive the wire" true
      (tr.Cm_plugins.Plugin.anchors = [ ("spine", "spine", []) ])

let suites =
  [
    ( "wrapper.store",
      [
        Alcotest.test_case "instances" `Quick test_store_instances;
        Alcotest.test_case "tuples" `Quick test_store_tuples;
        Alcotest.test_case "reads = engine answers" `Quick
          test_store_reads_match_engine;
      ] );
    ( "wrapper.capability",
      [ Alcotest.test_case "checks" `Quick test_capability_checks ] );
    ( "wrapper.source",
      [
        Alcotest.test_case "scan + refusal" `Quick test_source_fetch_scan;
        Alcotest.test_case "selection pushdown" `Quick test_source_fetch_select;
        Alcotest.test_case "binding patterns" `Quick test_source_binding_pattern;
        Alcotest.test_case "templates" `Quick test_source_template;
        Alcotest.test_case "placeholders are whole tokens" `Quick
          test_template_placeholder_prefix;
        Alcotest.test_case "wire export" `Quick test_source_export_xml;
      ] );
  ]
