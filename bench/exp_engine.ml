(* A1 — engine ablation: semi-naive vs naive evaluation on closure
   workloads (the engine underlies everything the mediator does; the
   paper's FLORA relies on the same property via tabling).

   A2 — plug-in overhead: translating the same CM through each XML
   dialect vs consuming native GCM, demonstrating the "single GCM
   engine, translators at the edge" economics. *)

open Kind
module Engine = Datalog.Engine

let v = Logic.Term.var
let s = Logic.Term.sym

let tc_rules =
  [
    Logic.Rule.make
      (Logic.Atom.make "tc" [ v "X"; v "Y" ])
      [ Logic.Literal.pos "edge" [ v "X"; v "Y" ] ];
    Logic.Rule.make
      (Logic.Atom.make "tc" [ v "X"; v "Y" ])
      [ Logic.Literal.pos "tc" [ v "X"; v "Z" ]; Logic.Literal.pos "edge" [ v "Z"; v "Y" ] ];
  ]

let chain n =
  List.init n (fun k ->
      Logic.Rule.fact
        (Logic.Atom.make "edge"
           [ s (Printf.sprintf "n%d" k); s (Printf.sprintf "n%d" (k + 1)) ]))

let a1 () =
  Util.header "A1  Engine ablation: semi-naive vs naive evaluation";
  let rows =
    List.map
      (fun n ->
        let p = Datalog.Program.make_exn (tc_rules @ chain n) in
        let run strategy report =
          Util.time_median ~reps:3 (fun () ->
              ignore
                (Engine.materialize
                   ~config:{ Engine.default_config with Engine.strategy }
                   ~report p (Datalog.Database.create ())))
        in
        let rn = ref Engine.empty_report in
        let rs = ref !rn in
        let ms_naive = run Engine.Naive rn in
        let ms_semi = run Engine.Seminaive rs in
        [
          Util.fint n;
          Util.fint !rs.Engine.derived;
          Util.fms ms_semi;
          Util.fint !rs.Engine.tuples_scanned;
          Util.fms ms_naive;
          Util.fint !rn.Engine.tuples_scanned;
          Printf.sprintf "%.1fx" (ms_naive /. max 0.001 ms_semi);
        ])
      [ 32; 64; 128; 256 ]
  in
  Util.table
    ~columns:
      [
        "chain"; "tc facts"; "semi ms"; "semi scans"; "naive ms";
        "naive scans"; "speedup";
      ]
    rows;
  Util.note "shape check: the speedup grows with the number of iterations";
  Util.note "(chain length) — the semi-naive delta avoids rescanning."

(* A4: incremental maintenance — a new source registers (or a wrapper
   streams fresh observations) and the mediated closure must absorb the
   delta without re-materializing. *)
let a4 () =
  Util.header "A4  Incremental maintenance: absorb a delta vs re-materialize";
  let rows =
    List.map
      (fun n ->
        let base = chain n in
        let p = Datalog.Program.make_exn (tc_rules @ base) in
        let delta =
          Logic.Atom.make "edge"
            [ s (Printf.sprintf "n%d" (n + 1)); s (Printf.sprintf "n%d" (n + 2)) ]
        in
        (* measure just the delta absorption on a prebuilt database:
           adopt it under maintenance (indexes built lazily, as a
           one-shot handle does) and apply the one-edge batch *)
        let prebuilt = Engine.materialize p (Datalog.Database.create ()) in
        let ms_incr =
          Util.time_median ~reps:3 (fun () ->
              let db = Datalog.Database.copy prebuilt in
              match
                Result.bind (Datalog.Maintain.of_materialized ~prewarm:false p db)
                  (fun h -> Datalog.Maintain.apply h (Datalog.Maintain.delta ~additions:[ delta ] ()))
              with
              | Ok _ -> ()
              | Error e -> failwith e)
        in
        let ms_rebuild =
          Util.time_median ~reps:3 (fun () ->
              ignore
                (Engine.materialize
                   (Datalog.Program.make_exn
                      (tc_rules @ base @ [ Logic.Rule.fact delta ]))
                   (Datalog.Database.create ())))
        in
        [
          Util.fint n;
          Util.fms ms_incr;
          Util.fms ms_rebuild;
          Printf.sprintf "%.1fx" (ms_rebuild /. max 0.001 ms_incr);
        ])
      [ 32; 64; 128; 256 ]
  in
  Util.table
    ~columns:[ "chain"; "absorb delta ms"; "re-materialize ms"; "speedup" ]
    rows;
  Util.note "shape check: the delta touches one frontier, so absorption cost";
  Util.note "is near-flat while re-materialization grows with the closure."

(* A3: tabled top-down vs full materialization on selective goals —
   the goal-directedness FLORA gets from XSB's tabling. Workload:
   k disconnected chain islands; the goal asks about one island only. *)
let a3 () =
  Util.header "A3  Tabling ablation: goal-directed top-down vs materialization";
  let islands ~count ~len =
    List.concat
      (List.init count (fun i ->
           List.init len (fun k ->
               Logic.Rule.fact
                 (Logic.Atom.make "edge"
                    [
                      s (Printf.sprintf "i%d_n%d" i k);
                      s (Printf.sprintf "i%d_n%d" i (k + 1));
                    ]))))
  in
  let goal = Logic.Atom.make "tc" [ s "i0_n0"; v "Y" ] in
  let rows =
    List.map
      (fun count ->
        let p = Datalog.Program.make_exn (tc_rules @ islands ~count ~len:24) in
        let stats = Datalog.Topdown.new_stats () in
        let td = ref [] in
        let ms_td =
          Util.time_median ~reps:3 (fun () ->
              td := Datalog.Topdown.solve ~stats p (Datalog.Database.create ()) goal)
        in
        let bu = ref [] in
        let ms_bu =
          Util.time_median ~reps:3 (fun () ->
              let db = Engine.materialize p (Datalog.Database.create ()) in
              bu := Engine.answers db goal)
        in
        assert (List.sort compare !bu = List.sort compare !td);
        [
          Util.fint count;
          Util.fint (List.length !td);
          Util.fms ms_td;
          Util.fint stats.Datalog.Topdown.answers;
          Util.fms ms_bu;
          Printf.sprintf "%.1fx" (ms_bu /. max 0.001 ms_td);
        ])
      [ 1; 4; 16; 64 ]
  in
  Util.table
    ~columns:
      [
        "islands"; "goal answers"; "top-down ms"; "tabled answers";
        "materialize ms"; "speedup";
      ]
    rows;
  Util.note "shape check: the bound goal's cost is flat while materialization";
  Util.note "pays for every island — goal-directedness, as in XSB tabling."

let a2 () =
  Util.header "A2  Plug-in overhead: XML dialects -> one GCM engine";
  let reg = Cm_plugins.Defaults.registry () in
  (* one CM, four dialects; build documents of growing size *)
  let gcm_doc n =
    let b = Buffer.create 4096 in
    Buffer.add_string b "<gcm source=\"L\"><class name=\"c\"/>";
    for k = 1 to n do
      Buffer.add_string b (Printf.sprintf "<instance id=\"o%d\" class=\"c\"/>" k)
    done;
    Buffer.add_string b "</gcm>";
    Buffer.contents b
  in
  let er_doc n =
    let b = Buffer.create 4096 in
    Buffer.add_string b "<er name=\"L\"><entity name=\"c\"/>";
    for k = 1 to n do
      Buffer.add_string b
        (Printf.sprintf "<entity-instance entity=\"c\" key=\"o%d\"/>" k)
    done;
    Buffer.add_string b "</er>";
    Buffer.contents b
  in
  let uxf_doc n =
    let b = Buffer.create 4096 in
    Buffer.add_string b "<uxf><class name=\"C\"/>";
    for k = 1 to n do
      Buffer.add_string b (Printf.sprintf "<object name=\"o%d\" class=\"C\"/>" k)
    done;
    Buffer.add_string b "</uxf>";
    Buffer.contents b
  in
  let rdf_doc n =
    let b = Buffer.create 4096 in
    Buffer.add_string b "<rdf:RDF name=\"L\"><rdfs:Class rdf:ID=\"c\"/>";
    for k = 1 to n do
      Buffer.add_string b
        (Printf.sprintf
           "<rdf:Description rdf:ID=\"o%d\"><rdf:type rdf:resource=\"c\"/></rdf:Description>"
           k)
    done;
    Buffer.add_string b "</rdf:RDF>";
    Buffer.contents b
  in
  let n = 2000 in
  let rows =
    List.map
      (fun (format, doc) ->
        let ms =
          Util.time_median ~reps:3 (fun () ->
              match Cm_plugins.Plugin.translate_string reg ~format doc with
              | Ok tr -> assert (List.length tr.Cm_plugins.Plugin.facts >= n)
              | Error e -> failwith e)
        in
        [
          format;
          Util.fint (String.length doc);
          Util.fms ms;
          Printf.sprintf "%.0f" (float_of_int n /. ms *. 1000.0);
        ])
      [
        ("gcm-xml", gcm_doc n);
        ("er-xml", er_doc n);
        ("uxf", uxf_doc n);
        ("rdfs", rdf_doc n);
      ]
  in
  Util.table ~columns:[ "dialect"; "bytes"; "translate ms"; "objects/s" ] rows;
  Util.note "shape check: every dialect lands within a small constant factor";
  Util.note "of the native one — translators are cheap, the engine is shared."
