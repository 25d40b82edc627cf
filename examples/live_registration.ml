(* A "living" federation: sources join over the wire protocol and
   stream fresh observations; the mediator absorbs each delta
   incrementally instead of re-materializing.

   Demonstrates: Protocol (the XML dialogues of Section 2),
   Mediator.register_xml, Datalog.Maintain, and the semantic index
   updating as the federation grows.

   Run with: dune exec examples/live_registration.exe *)

open Kind
module Molecule = Flogic.Molecule
module Protocol = Mediation.Protocol

let t = Logic.Term.sym
let section title = Format.printf "@.== %s ==@." title

let () =
  section "An empty mediator over the ANATOM map";
  let med = Mediation.Mediator.create Neuro.Anatom.full in
  Format.printf "sources: %d@." (List.length (Mediation.Mediator.sources med));

  section "A laboratory joins over the wire";
  let registration_doc =
    Xmlkit.Parse.parse_exn
      {|<gcm source="LIVE_LAB">
          <class name="observation">
            <method name="site" range="anatomical_term"/>
            <method name="calcium_level" range="number"/>
          </class>
          <instance id="obs1" class="observation"/>
          <value object="obs1" method="site">spine</value>
          <value object="obs1" method="calcium_level">0.8</value>
          <anchor class="observation" concept="spine" context="cerebellum"/>
        </gcm>|}
  in
  let wire =
    Protocol.encode_request
      (Protocol.Register { format = "gcm-xml"; document = registration_doc })
  in
  Format.printf "register message on the wire (%d bytes)@."
    (String.length (Xmlkit.Print.to_string wire));
  (match Protocol.decode_request wire with
  | Ok (Protocol.Register { format; document }) -> (
    match
      Protocol.register_remote med ~source_name:"LIVE_LAB" ~format document
    with
    | Ok () -> Format.printf "LIVE_LAB registered.@."
    | Error e -> failwith e)
  | _ -> failwith "wire decode failed");
  Format.printf "who knows about spines now? %s@."
    (String.concat ", " (Mediation.Mediator.select_sources med ~concepts:[ "spine" ]));

  section "Fetching through the wrapper protocol";
  let src = Option.get (Mediation.Mediator.find_source med "LIVE_LAB") in
  let ep = Protocol.endpoint src in
  (match
     Protocol.call ep
       (Protocol.Fetch_instances { cls = "observation"; selections = [] })
   with
  | Protocol.Objects objs -> Format.printf "%d observation(s) served@." (List.length objs)
  | _ -> failwith "fetch failed");

  section "Streaming observations into a materialized closure";
  (* A standing program: roll calcium levels up the has_a_star links of
     the domain map (pure positive datalog -> incrementally
     maintainable). *)
  let dm_prog, _ =
    Domain_map.To_program.program ~include_instance_rules:false
      (Mediation.Mediator.dmap med)
  in
  let standing =
    Flogic.Fl_program.add_rules dm_prog
      (Flogic.Fl_parser.parse_program_exn
         {| seen_at(C) :- obs_at(O, C).
            seen_under(C) :- has_a_star(C, D), seen_at(D).
            seen_under(C) :- seen_at(C). |})
        .Flogic.Fl_parser.rules
  in
  let compiled =
    match Flogic.Fl_program.compile standing with
    | Ok p -> p
    | Error e -> failwith e
  in
  let h =
    match Datalog.Maintain.init compiled (Datalog.Database.create ()) with
    | Ok h -> h
    | Error e -> failwith e
  in
  let db = Datalog.Maintain.db h in
  Format.printf "standing closure: %d facts@." (Datalog.Database.cardinal db);
  let stream =
    [ ("obs2", "spine"); ("obs3", "dendrite"); ("obs4", "soma"); ("obs5", "spine") ]
  in
  List.iter
    (fun (o, site) ->
      match
        Datalog.Maintain.apply h
          (Datalog.Maintain.delta
             ~additions:[ Logic.Atom.make "obs_at" [ t o; t site ] ] ())
      with
      | Ok r ->
        Format.printf "  %s@%s absorbed: %d new facts@." o site
          r.Datalog.Maintain.added
      | Error e -> failwith e)
    stream;
  let seen_under c =
    Datalog.Database.mem db (Logic.Atom.make "seen_under" [ t c ])
  in
  Format.printf "observations visible under purkinje_cell: %b@."
    (seen_under "purkinje_cell");
  Format.printf "observations visible under neostriatum: %b@."
    (seen_under "neostriatum")
