(* Tests for the wrapper/mediator wire protocol: codecs round-trip,
   endpoints execute, capability refusals travel as Failed. *)

open Mediation
module Xml = Xmlkit.Xml
module Molecule = Flogic.Molecule

let s = Logic.Term.sym
let f = Logic.Term.float
let v = Logic.Term.var

let sample_source () =
  let schema =
    Gcm.Schema.make ~name:"LAB"
      ~classes:[ Gcm.Schema.class_def "spine" ~methods:[ ("diameter", "number") ] ]
      ~relations:[ ("has", [ ("whole", "thing"); ("part", "thing") ]) ]
      ()
  in
  Wrapper.Source.make ~name:"LAB" ~schema
    ~capabilities:
      [
        Wrapper.Capability.scan_class "spine";
        Wrapper.Capability.select_class ~cls:"spine" ~on:[ "diameter" ];
        Wrapper.Capability.bind_relation ~rel:"has"
          ~pattern:[ Wrapper.Capability.Bound; Wrapper.Capability.Free ];
        Wrapper.Capability.template ~name:"wide" ~params:[ "min" ]
          ~body:"X : spine, X[diameter ->> D], D > $min";
      ]
    ~data:
      [
        Molecule.Isa (s "s1", s "spine");
        Molecule.Meth_val (s "s1", "diameter", f 0.3);
        Molecule.Isa (s "s2", s "spine");
        Molecule.Meth_val (s "s2", "diameter", f 0.8);
        Molecule.Rel_val ("has", [ ("whole", s "d1"); ("part", s "s1") ]);
      ]
    ()

let roundtrip_request req =
  match Protocol.decode_request (Protocol.encode_request req) with
  | Ok req' -> req'
  | Error e -> Alcotest.failf "request codec failed: %s" e

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Fetch_instances
        {
          cls = "spine";
          selections = [ ("diameter", Logic.Literal.Gt, f 0.5) ];
        };
      Protocol.Fetch_tuples { rel = "has"; pattern = [ ("whole", s "d1") ] };
      Protocol.Run_template { name = "wide"; args = [ ("min", f 0.5) ] };
      (* more digits than %g prints: floats must cross the wire exactly *)
      Protocol.Update_facts
        {
          source = "LAB";
          additions = [ Molecule.Meth_val (s "s3", "diameter", f 0.123456789) ];
          deletions = [];
        };
      Protocol.Register
        { format = "gcm-xml"; document = Xml.elt "gcm" ~attrs:[ ("source", "X") ] [] };
    ]
  in
  List.iter (fun req -> assert (roundtrip_request req = req)) reqs

let test_request_roundtrip_quoted_terms () =
  (* terms with spaces / capitals / structure must survive the wire *)
  let req =
    Protocol.Fetch_instances
      {
        cls = "c";
        selections =
          [
            ("location", Logic.Literal.Eq, s "Purkinje Cell");
            ("weird", Logic.Literal.Eq, Logic.Term.app "f" [ s "a b"; f 1.5 ]);
            ("name", Logic.Literal.Eq, Logic.Term.str "a \"quoted\" str");
          ];
      }
  in
  Alcotest.(check bool) "quoted round trip" true (roundtrip_request req = req)

let test_fetch_over_wire () =
  let ep = Protocol.endpoint (sample_source ()) in
  (match
     Protocol.call ep
       (Protocol.Fetch_instances
          { cls = "spine"; selections = [ ("diameter", Logic.Literal.Gt, f 0.5) ] })
   with
  | Protocol.Objects [ o ] ->
    Alcotest.(check bool) "s2 returned" true (Logic.Term.equal o.Wrapper.Store.id (s "s2"))
  | _ -> Alcotest.fail "expected one object");
  (match
     Protocol.call ep
       (Protocol.Fetch_tuples { rel = "has"; pattern = [ ("whole", s "d1") ] })
   with
  | Protocol.Tuples [ [ a; b ] ] ->
    Alcotest.(check bool) "tuple content" true
      (Logic.Term.equal a (s "d1") && Logic.Term.equal b (s "s1"))
  | _ -> Alcotest.fail "expected one tuple");
  match
    Protocol.call ep (Protocol.Run_template { name = "wide"; args = [ ("min", f 0.5) ] })
  with
  | Protocol.Bindings [ _ ] -> ()
  | _ -> Alcotest.fail "expected one binding row"

let test_refusals_travel () =
  let ep = Protocol.endpoint (sample_source ()) in
  (match
     Protocol.call ep (Protocol.Fetch_tuples { rel = "has"; pattern = [] })
   with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "ff access must fail over the wire");
  (match
     Protocol.call ep
       (Protocol.Fetch_instances { cls = "nope"; selections = [] })
   with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "unknown class must fail over the wire");
  (* garbage documents become Failed, never exceptions *)
  match Protocol.decode_response (Protocol.handle ep (Xml.elt "garbage" [])) with
  | Ok (Protocol.Failed _) -> ()
  | _ -> Alcotest.fail "garbage must decode to Failed"

let test_register_dialogue () =
  let med = Mediation.Mediator.create Neuro.Anatom.full in
  let doc =
    Xmlkit.Parse.parse_exn
      {|<gcm source="W">
          <class name="obs"><method name="v" range="number"/></class>
          <instance id="o1" class="obs"/>
          <anchor class="obs" concept="spine"/>
        </gcm>|}
  in
  (* the full dialogue: encode the register message, decode it on the
     mediator side, register. *)
  let wire = Protocol.encode_request (Protocol.Register { format = "gcm-xml"; document = doc }) in
  (match Protocol.decode_request wire with
  | Ok (Protocol.Register { format; document }) -> (
    match Protocol.register_remote med ~source_name:"W" ~format document with
    | Ok () -> ()
    | Error e -> Alcotest.failf "register failed: %s" e)
  | _ -> Alcotest.fail "register message mangled");
  Alcotest.(check (list string)) "registered and indexed" [ "W" ]
    (Mediation.Mediator.select_sources med ~concepts:[ "spine" ]);
  let answers =
    Mediation.Mediator.query med
      [ Molecule.Pos (Molecule.isa (v "X") (s "W.obs")) ]
  in
  Alcotest.(check int) "data arrived" 1 (List.length answers)

(* ------------------------------------------------------------------ *)
(* Fault-runtime messages and the faulty wire                          *)

let roundtrip_response resp =
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok resp' -> resp'
  | Error e -> Alcotest.failf "response codec failed: %s" e

let test_fault_messages_roundtrip () =
  Alcotest.(check bool) "ping" true (roundtrip_request Protocol.Ping = Protocol.Ping);
  List.iter
    (fun resp -> assert (roundtrip_response resp = resp))
    [
      Protocol.Pong { source = "LAB" };
      Protocol.Timed_out { source = "LAB"; after = 100 };
      Protocol.Unavailable { source = "LAB"; retry_in = Some 50 };
      Protocol.Unavailable { source = "LAB"; retry_in = None };
    ]

let test_faulty_endpoint () =
  let module F = Wrapper.Fault in
  let ep =
    Protocol.faulty_endpoint
      (F.wrap
         ~plan:
           (F.Script
              [
                { F.at = 1; fault = F.Transient "burp" };
                { F.at = 3; fault = F.Timeout };
                { F.at = 4; fault = F.Crash };
              ])
         (sample_source ()))
  in
  let fetch () =
    Protocol.call ep (Protocol.Fetch_instances { cls = "spine"; selections = [] })
  in
  (* call 1: the transient travels as Unavailable with a retry hint *)
  (match fetch () with
  | Protocol.Unavailable { source = "LAB"; retry_in = Some _ } -> ()
  | _ -> Alcotest.fail "transient must travel as Unavailable");
  (* call 2: clean *)
  (match fetch () with
  | Protocol.Objects [ _; _ ] -> ()
  | _ -> Alcotest.fail "clean call must answer");
  (* call 3: timeout, with the virtual cost it burned *)
  (match Protocol.call ep Protocol.Ping with
  | Protocol.Timed_out { source = "LAB"; after } ->
    Alcotest.(check int) "timeout cost" F.timeout_cost after
  | _ -> Alcotest.fail "timeout must travel as Timed_out");
  (* call 4 and after: crashed for good *)
  (match fetch () with
  | Protocol.Unavailable { source = "LAB"; retry_in = None } -> ()
  | _ -> Alcotest.fail "crash must travel as Unavailable without retry hint");
  match Protocol.call ep Protocol.Ping with
  | Protocol.Unavailable { source = "LAB"; retry_in = None } -> ()
  | _ -> Alcotest.fail "a crash latches"

let test_ping_pong_text () =
  let ep = Protocol.endpoint (sample_source ()) in
  match Protocol.call_text ep Protocol.Ping with
  | Ok (Protocol.Pong { source = "LAB" }, 0) -> ()
  | Ok _ -> Alcotest.fail "expected a clean pong"
  | Error e -> Alcotest.failf "text dialogue failed: %s" e

let test_corrupted_wire () =
  let module F = Wrapper.Fault in
  let fetch_text plan =
    let ep = Protocol.faulty_endpoint (F.wrap ~plan (sample_source ())) in
    Protocol.call_text ep
      (Protocol.Fetch_instances { cls = "spine"; selections = [] })
  in
  (* clean channel: zero recoveries, same answer as the in-process call *)
  (match fetch_text F.Reliable with
  | Ok (Protocol.Objects [ _; _ ], 0) -> ()
  | Ok _ -> Alcotest.fail "clean wire must carry both objects"
  | Error e -> Alcotest.failf "clean wire failed: %s" e);
  (* truncated payload: the lenient parser recovers a usable prefix —
     never an exception, and any Ok decode reports its repairs *)
  (match fetch_text (F.Script [ { F.at = 1; fault = F.Truncate 700 } ]) with
  | Ok (_, n) ->
    Alcotest.(check bool) "truncation needed repairs" true (n > 0)
  | Error _ -> () (* an unusable prefix is a clean decode error *));
  (* garbled payload: same totality contract *)
  match fetch_text (F.Script [ { F.at = 1; fault = F.Garble } ]) with
  | Ok _ | Error _ -> ()

let suites =
  [
    ( "protocol",
      [
        Alcotest.test_case "request codecs" `Quick test_request_roundtrip;
        Alcotest.test_case "quoted terms" `Quick test_request_roundtrip_quoted_terms;
        Alcotest.test_case "fetch over the wire" `Quick test_fetch_over_wire;
        Alcotest.test_case "refusals travel" `Quick test_refusals_travel;
        Alcotest.test_case "register dialogue" `Quick test_register_dialogue;
        Alcotest.test_case "fault message codecs" `Quick
          test_fault_messages_roundtrip;
        Alcotest.test_case "faults travel the wire" `Quick test_faulty_endpoint;
        Alcotest.test_case "ping/pong over text" `Quick test_ping_pong_text;
        Alcotest.test_case "corrupted payloads recover" `Quick
          test_corrupted_wire;
      ] );
  ]
