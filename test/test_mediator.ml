(* Integration tests for the mediator: registration, lifting,
   namespacing, IVDs, the Section 5 plan with ablations, and the
   structural baseline. *)

open Mediation
module Molecule = Flogic.Molecule
module Source = Wrapper.Source

let s = Logic.Term.sym
let v = Logic.Term.var

let params = { Neuro.Sources.seed = 7; Neuro.Sources.scale = 30 }

let fresh_mediator ?config () = Neuro.Sources.standard_mediator ?config params

(* -------------------------------------------------------------------- *)
(* Namespacing *)

let test_namespace () =
  Alcotest.(check string) "qualify" "NCMIR.protein"
    (Namespace.qualify ~source:"NCMIR" "protein");
  Alcotest.(check (option (pair string string))) "split"
    (Some ("NCMIR", "protein"))
    (Namespace.split "NCMIR.protein");
  let schema =
    Gcm.Schema.make ~name:"LAB"
      ~classes:
        [
          Gcm.Schema.class_def "neuron" ~supers:[ "cell"; "thing" ];
          Gcm.Schema.class_def "cell";
        ]
      ~relations:[ ("has", [ ("whole", "neuron"); ("part", "external_part") ]) ]
      ()
  in
  let ns = Namespace.schema ~source:"LAB" schema in
  Alcotest.(check (list string)) "classes qualified"
    [ "LAB.neuron"; "LAB.cell" ]
    (Gcm.Schema.class_names ns);
  (match ns.Gcm.Schema.classes with
  | [ n; _ ] ->
    Alcotest.(check (list string)) "own super qualified, foreign kept"
      [ "LAB.cell"; "thing" ] n.Gcm.Schema.supers
  | _ -> Alcotest.fail "class shape");
  match ns.Gcm.Schema.relations with
  | [ (r, avs) ] ->
    Alcotest.(check string) "relation qualified" "LAB.has" r;
    Alcotest.(check (list string)) "attr classes"
      [ "LAB.neuron"; "external_part" ]
      (List.map snd avs)
  | _ -> Alcotest.fail "relation shape"

(* -------------------------------------------------------------------- *)
(* Registration and materialization *)

let test_registration () =
  let med = fresh_mediator () in
  Alcotest.(check (list string)) "sources registered"
    [ "SYNAPSE"; "NCMIR"; "SENSELAB" ]
    (List.map Source.name (Mediator.sources med));
  (* duplicate registration rejected *)
  (match Mediator.register_source med (Neuro.Sources.synapse params) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate registration accepted");
  (* anchors landed in the index *)
  Alcotest.(check (list string)) "index sources"
    [ "NCMIR"; "SENSELAB"; "SYNAPSE" ]
    (Domain_map.Index.sources (Mediator.index med))

let test_lifting () =
  let med = fresh_mediator () in
  (* source data is visible at the conceptual level: SYNAPSE spines are
     instances of the DM concept 'spine' via the anchor rule, hence of
     ion_regulating_component via the DM isa edge. *)
  let members cls =
    Mediator.query med [ Molecule.Pos (Molecule.isa (v "X") (s cls)) ]
    |> List.length
  in
  Alcotest.(check bool) "namespaced class populated" true
    (members "SYNAPSE.spine_measure" > 0);
  Alcotest.(check bool) "anchored into DM concept" true
    (members "spine" >= members "SYNAPSE.spine_measure");
  Alcotest.(check bool) "DM isa closes upward" true
    (members "ion_regulating_component" >= members "SYNAPSE.spine_measure")

let test_query_text () =
  let med = fresh_mediator () in
  match
    Mediator.query_text med
      "?- X : 'SENSELAB.neurotransmission', X[organism ->> \"rat\"]."
  with
  | Ok answers -> Alcotest.(check bool) "rat rows exist" true (answers <> [])
  | Error e -> Alcotest.failf "query failed: %s" e

(* An unsafe query is an [Error] carrying the safety check's message
   whatever the base holds: the check runs before evaluation, so a
   first literal with no answers does not hide it. *)
let test_unsafe_queries () =
  let med = fresh_mediator () in
  List.iter
    (fun (q, expected) ->
      match Mediator.query_text med q with
      | Ok _ -> Alcotest.failf "unsafe query answered: %s" q
      | Error e -> Alcotest.(check string) q expected e)
    [
      ("?- not X : spine.", "rule query: variable X is not range-restricted");
      ( "?- X : spine, not X[volume ->> V].",
        "rule query(X): variable V is not range-restricted" );
      ("?- X > 3.", "rule query: variable X is not range-restricted");
      ("?- X = Y.", "rule query(X, Y): variable X is not range-restricted");
      ( "?- X : no_such_class, X > Y.",
        "rule query(X): variable Y is not range-restricted" );
      ( "?- X : spine, X > Y.",
        "rule query(X): variable Y is not range-restricted" );
    ];
  match Mediator.query_text med "?- X : spine." with
  | Ok answers ->
    Alcotest.(check bool) "safe queries still answer" true (answers <> [])
  | Error e -> Alcotest.failf "query failed: %s" e

let test_ivd () =
  let med = fresh_mediator () in
  (match
     Mediator.add_ivd_text med
       {| calcium_protein(P) :-
            X : 'NCMIR.protein', X[name ->> P], X[ion_bound ->> calcium]. |}
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "IVD rejected: %s" e);
  let answers =
    Mediator.query med [ Molecule.Pos (Molecule.pred "calcium_protein" [ v "P" ]) ]
  in
  Alcotest.(check int) "five calcium binders"
    (List.length Neuro.Sources.calcium_binders)
    (List.length answers)

(* A view that does not compile to safe Datalog is refused and leaves
   the mediator as it was; a safe view whose well-founded model is not
   total makes queries fail with [Error], not an exception. *)
let test_bad_ivd () =
  let config =
    { Mediator.default_config with Mediator.lint = Mediator.Lint_reject }
  in
  let med = fresh_mediator ~config () in
  let q = "?- X : spine." in
  let count () =
    match Mediator.query_text med q with
    | Ok answers -> List.length answers
    | Error e -> Alcotest.failf "query failed: %s" e
  in
  let n0 = count () in
  List.iter
    (fun view ->
      (match Mediator.add_ivd_text med view with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "unsafe view accepted: %s" view);
      Alcotest.(check int) (view ^ ": no view installed") 0
        (List.length (Mediator.ivds med));
      Alcotest.(check int) (view ^ ": queries still answer") n0 (count ()))
    [ "bad(X) :- not X : spine."; "v(X, Y) :- X : spine." ];
  (match Mediator.add_ivd_text med "w(X) :- X : spine, not w(X)." with
  | Ok () -> ()
  | Error e -> Alcotest.failf "safe view refused: %s" e);
  match Mediator.query_text med q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a base with undefined atoms answered"

(* The molecule-level entry point refuses an unsafe view too, and
   leaves views, signature, warnings and the live materialization as
   they were. *)
let test_bad_ivd_molecules () =
  let med = fresh_mediator () in
  let q = "?- X : spine." in
  let count () =
    match Mediator.query_text med q with
    | Ok answers -> List.length answers
    | Error e -> Alcotest.failf "query failed: %s" e
  in
  let n0 = count () in
  let sg0 = Mediator.signature med in
  let warnings0 = Mediator.translation_warnings med in
  let rebuilt0 = (Mediator.cache_stats med).Mediator.rebuilt in
  let parsed =
    Flogic.Fl_parser.parse_program_exn ~signature:sg0
      "bad(X) :- not X : spine."
  in
  (match Mediator.add_ivd med parsed.Flogic.Fl_parser.rules with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unsafe view accepted");
  Alcotest.(check int) "no view installed" 0 (List.length (Mediator.ivds med));
  Alcotest.(check bool) "signature unchanged" true
    (Mediator.signature med == sg0);
  Alcotest.(check (list string)) "warnings unchanged" warnings0
    (Mediator.translation_warnings med);
  Alcotest.(check int) "queries still answer" n0 (count ());
  Alcotest.(check int) "materialization kept" rebuilt0
    (Mediator.cache_stats med).Mediator.rebuilt

(* [cost_budget] escalates an over-budget view estimate to an error:
   [Lint_reject] refuses the view, [Lint_warn] installs it with the
   finding in the warnings, and without a budget there is no finding. *)
let test_ivd_cost_budget () =
  let view =
    "pairs(X, Y) :- X : 'NCMIR.protein', Y : 'SENSELAB.neurotransmission'."
  in
  let mentions_budget s =
    let needle = "over-budget" in
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  let with_config lint cost_budget =
    fresh_mediator
      ~config:{ Mediator.default_config with Mediator.lint; cost_budget }
      ()
  in
  let med = with_config Mediator.Lint_reject (Some 50) in
  (match Mediator.add_ivd_text med view with
  | Error e ->
    Alcotest.(check bool) "the refusal names over-budget" true
      (mentions_budget e)
  | Ok () -> Alcotest.fail "over-budget view accepted under Lint_reject");
  Alcotest.(check int) "refused view not installed" 0
    (List.length (Mediator.ivds med));
  let med = with_config Mediator.Lint_warn (Some 50) in
  (match Mediator.add_ivd_text med view with
  | Ok () -> ()
  | Error e -> Alcotest.failf "view refused under Lint_warn: %s" e);
  Alcotest.(check bool) "view installed under Lint_warn" true
    (Mediator.ivds med <> []);
  Alcotest.(check bool) "over-budget warning recorded" true
    (List.exists mentions_budget (Mediator.translation_warnings med));
  let med = with_config Mediator.Lint_warn None in
  (match Mediator.add_ivd_text med view with
  | Ok () -> ()
  | Error e -> Alcotest.failf "view refused without a budget: %s" e);
  Alcotest.(check bool) "no budget, no over-budget finding" false
    (List.exists mentions_budget (Mediator.translation_warnings med))

let test_extend_dmap () =
  let med = fresh_mediator () in
  (match Mediator.extend_dmap med Neuro.Anatom.fig3_registration with
  | Ok () -> ()
  | Error e -> Alcotest.failf "extension failed: %s" e);
  Alcotest.(check bool) "my_neuron in map" true
    (Domain_map.Dmap.mem (Mediator.dmap med) "my_neuron")

let test_register_via_xml () =
  let med = Mediator.create Neuro.Anatom.full in
  let doc =
    {|<gcm source="W">
        <class name="observation"><method name="value" range="number"/></class>
        <instance id="o1" class="observation"/>
        <value object="o1" method="value">3</value>
        <anchor class="observation" concept="spine"/>
      </gcm>|}
  in
  (match
     Mediator.register_xml med ~format:"gcm-xml" ~source_name:"WIRE"
       (Xmlkit.Parse.parse_exn doc)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "xml registration failed: %s" e);
  Alcotest.(check (list string)) "selected by concept" [ "WIRE" ]
    (Mediator.select_sources med ~concepts:[ "spine" ])

(* -------------------------------------------------------------------- *)
(* Source selection *)

let test_source_selection () =
  let med = fresh_mediator () in
  (* purkinje_cell + spine: NCMIR has amounts there; SYNAPSE anchors at
     spine too. SENSELAB anchors only at the neurotransmission concept. *)
  let chosen = Mediator.select_sources med ~concepts:[ "purkinje_cell"; "spine" ] in
  Alcotest.(check bool) "NCMIR selected" true (List.mem "NCMIR" chosen);
  Alcotest.(check bool) "SENSELAB not selected" false (List.mem "SENSELAB" chosen);
  (* broadcast when the index is off *)
  Mediator.set_config med
    { (Mediator.config med) with Mediator.use_semantic_index = false };
  Alcotest.(check int) "broadcast contacts all" 3
    (List.length (Mediator.select_sources med ~concepts:[ "purkinje_cell" ]))

(* -------------------------------------------------------------------- *)
(* Section 5 *)

let run_q5 ?config () =
  let med = fresh_mediator ?config () in
  match
    Section5.calcium_binding_query med ~organism:"rat"
      ~transmitting_compartment:"parallel_fiber" ~ion:"calcium" ()
  with
  | Ok o -> (med, o)
  | Error e -> Alcotest.failf "section 5 query failed: %s" e

let test_section5_answers () =
  let _, o = run_q5 () in
  (* locations bound by step 1 *)
  Alcotest.(check bool) "purkinje bound" true
    (List.mem "purkinje_cell" o.Section5.locations);
  (* step 2 picks exactly NCMIR ("in our case, only NCMIR is returned") *)
  Alcotest.(check bool) "NCMIR contacted" true
    (List.mem "NCMIR" o.Section5.sources_contacted);
  Alcotest.(check bool) "SYNAPSE not contacted" false
    (List.mem "SYNAPSE" o.Section5.sources_contacted);
  (* step 3: exactly the calcium binders *)
  Alcotest.(check (list string)) "calcium binders"
    (List.sort String.compare Neuro.Sources.calcium_binders)
    o.Section5.proteins;
  (* step 4: a root exists and distributions are non-empty *)
  Alcotest.(check bool) "root found" true (o.Section5.root <> None);
  Alcotest.(check int) "one distribution per protein"
    (List.length o.Section5.proteins)
    (List.length o.Section5.distributions);
  List.iter
    (fun (_, tree) ->
      Alcotest.(check bool) "distribution has mass" true
        (tree.Aggregate.total > 0.0))
    o.Section5.distributions

let test_section5_distribution_consistency () =
  let _, o = run_q5 () in
  (* the tree total equals the sum of own masses of its nodes *)
  List.iter
    (fun (_, tree) ->
      let rec own_sum t =
        t.Aggregate.own +. List.fold_left (fun a c -> a +. own_sum c) 0.0 t.Aggregate.children
      in
      Alcotest.(check (float 1e-6)) "rollup" (own_sum tree) tree.Aggregate.total)
    o.Section5.distributions

let test_section5_ablation_index () =
  let _, with_index = run_q5 () in
  let _, without =
    run_q5
      ~config:{ Mediator.default_config with Mediator.use_semantic_index = false }
      ()
  in
  Alcotest.(check (list string)) "same proteins"
    with_index.Section5.proteins without.Section5.proteins;
  Alcotest.(check bool) "broadcast contacts more sources" true
    (List.length without.Section5.sources_contacted
    > List.length with_index.Section5.sources_contacted)

let test_section5_ablation_pushdown () =
  let _, pushed = run_q5 () in
  let _, scanned =
    run_q5 ~config:{ Mediator.default_config with Mediator.pushdown = false } ()
  in
  Alcotest.(check (list string)) "same proteins"
    pushed.Section5.proteins scanned.Section5.proteins;
  Alcotest.(check bool)
    (Printf.sprintf "pushdown ships fewer tuples (%d < %d)"
       pushed.Section5.tuples_moved scanned.Section5.tuples_moved)
    true
    (pushed.Section5.tuples_moved < scanned.Section5.tuples_moved)

let test_section5_ablation_lub () =
  let _, with_lub = run_q5 () in
  let _, without =
    run_q5 ~config:{ Mediator.default_config with Mediator.use_lub = false } ()
  in
  let tree_size o =
    List.fold_left (fun a (_, t) -> a + Aggregate.size t) 0 o.Section5.distributions
  in
  Alcotest.(check bool) "lub gives a tighter region" true
    (tree_size with_lub <= tree_size without);
  (* same total mass regardless of root *)
  let mass o =
    List.fold_left (fun a (_, t) -> a +. t.Aggregate.total) 0.0 o.Section5.distributions
  in
  Alcotest.(check (float 1e-6)) "mass preserved" (mass with_lub) (mass without)

(* The whole outcome on this fixture, for the full architecture and
   each ablation, pinned at the values the plan has always returned:
   a change to the domain-map closures or to the wrapper reads must not
   move any of it. The distribution trees are pinned by an MD5 of their
   rendering with masses to 6 decimals: the rows reach the sums in
   hash-set order, so the last bits of a mass depend on what the
   process interned before. *)
let rec tree_repr (t : Aggregate.tree) =
  Printf.sprintf "%s:%.6f:%.6f[%s]" t.Aggregate.concept t.Aggregate.own
    t.Aggregate.total
    (String.concat "," (List.map tree_repr t.Aggregate.children))

let test_section5_pinned () =
  let binders =
    [ "calbindin"; "calmodulin"; "ip3_receptor"; "parvalbumin"; "ryanodine_receptor" ]
  in
  List.iter
    (fun (variant, config, sources, root, tuples, size, digest) ->
      let _, o = run_q5 ~config () in
      let check_strings what = Alcotest.(check (list string)) (variant ^ ": " ^ what) in
      check_strings "locations" [ "dendrite"; "purkinje_cell"; "spine" ]
        o.Section5.locations;
      check_strings "sources contacted" sources o.Section5.sources_contacted;
      check_strings "proteins" binders o.Section5.proteins;
      Alcotest.(check (option string)) (variant ^ ": root") (Some root) o.Section5.root;
      Alcotest.(check int) (variant ^ ": tuples moved") tuples o.Section5.tuples_moved;
      check_strings "distributions" binders (List.map fst o.Section5.distributions);
      List.iter
        (fun (p, t) ->
          Alcotest.(check int) (variant ^ ": tree size " ^ p) size (Aggregate.size t))
        o.Section5.distributions;
      Alcotest.(check string) (variant ^ ": trees") digest
        (Digest.to_hex
           (Digest.string
              (String.concat ";"
                 (List.map (fun (p, t) -> p ^ "=" ^ tree_repr t) o.Section5.distributions)))))
    [
      ( "full", Mediator.default_config, [ "SENSELAB"; "NCMIR" ], "purkinje_cell",
        83, 9, "b7b473c4a7d00d8a5b229e39597f24b3" );
      ( "no index",
        { Mediator.default_config with Mediator.use_semantic_index = false },
        [ "SENSELAB"; "SYNAPSE"; "NCMIR" ], "purkinje_cell", 83, 9,
        "b7b473c4a7d00d8a5b229e39597f24b3" );
      ( "no pushdown",
        { Mediator.default_config with Mediator.pushdown = false },
        [ "SENSELAB"; "NCMIR" ], "purkinje_cell", 164, 9,
        "b7b473c4a7d00d8a5b229e39597f24b3" );
      ( "no lub",
        { Mediator.default_config with Mediator.use_lub = false },
        [ "SENSELAB"; "NCMIR" ], "nervous_system_part", 83, 16,
        "42ea4d1b4bb90a2cf57eab50e564b3f3" );
    ]

(* The domain-map closures follow the mediator's map: after
   [extend_dmap] adds memo_cell ⊑ purkinje_cell, the region over
   {memo_cell, purkinje_cell} and the sources for (memo_cell, spine) —
   NCMIR's spine data is anchored in the cerebellum, whose region now
   holds memo_cell — change, although both were asked (and their
   closures computed) on the map before. *)
let test_closures_follow_extend_dmap () =
  let med = fresh_mediator () in
  let root () =
    Option.map
      (fun (r : Domain_map.Region.t) -> r.Domain_map.Region.root)
      (Domain_map.Region.of_concepts (Mediator.dmap med)
         [ "memo_cell"; "purkinje_cell" ])
  in
  let sources () = Mediator.select_sources_for_pairs med ~pairs:[ ("memo_cell", "spine") ] in
  Alcotest.(check (option string)) "no region before" None (root ());
  Alcotest.(check (list string)) "no source before" [] (sources ());
  (match
     Mediator.extend_dmap med
       [ Dl.Concept.subsumes (Dl.Concept.name "memo_cell") (Dl.Concept.name "purkinje_cell") ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "extend_dmap: %s" e);
  Alcotest.(check (option string)) "region after" (Some "purkinje_cell") (root ());
  Alcotest.(check (list string)) "sources after" [ "NCMIR" ] (sources ())

let test_section5_no_data () =
  let med = fresh_mediator () in
  match
    Section5.calcium_binding_query med ~organism:"axolotl"
      ~transmitting_compartment:"parallel_fiber" ~ion:"calcium" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure for unknown organism"

let test_example4_distribution () =
  let med = fresh_mediator () in
  match
    Section5.protein_distribution med ~protein:"ryanodine_receptor"
      ~organism:"rat" ~root:"cerebellum"
  with
  | Error e -> Alcotest.failf "example 4 failed: %s" e
  | Ok tree ->
    Alcotest.(check string) "rooted at cerebellum" "cerebellum"
      tree.Aggregate.concept;
    Alcotest.(check bool) "mass present" true (tree.Aggregate.total > 0.0);
    (* purkinje data contributes below the root *)
    let flat = Aggregate.flatten tree in
    Alcotest.(check bool) "purkinje in distribution" true
      (List.mem_assoc "purkinje_cell" flat)

(* -------------------------------------------------------------------- *)
(* Baseline comparison *)

let test_baseline_agrees_and_costs_more () =
  let med = fresh_mediator () in
  let model =
    match
      Section5.calcium_binding_query med ~organism:"rat"
        ~transmitting_compartment:"parallel_fiber" ~ion:"calcium" ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "model-based failed: %s" e
  in
  let structural =
    match
      Baseline.calcium_binding_query med ~organism:"rat"
        ~transmitting_compartment:"parallel_fiber" ~ion:"calcium" ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "baseline failed: %s" e
  in
  Alcotest.(check (list string)) "same proteins"
    model.Section5.proteins structural.Baseline.proteins;
  Alcotest.(check bool) "baseline contacts every source" true
    (List.length structural.Baseline.sources_contacted
    > List.length model.Section5.sources_contacted);
  Alcotest.(check bool)
    (Printf.sprintf "baseline ships more tuples (%d > %d)"
       structural.Baseline.tuples_moved model.Section5.tuples_moved)
    true
    (structural.Baseline.tuples_moved > model.Section5.tuples_moved);
  (* per-location sums agree with the model-based distribution's own
     masses at those locations *)
  match model.Section5.distributions with
  | (p0, tree) :: _ ->
    let flat_own =
      let rec go t acc = List.fold_left (fun acc c -> go c acc) ((t.Aggregate.concept, t.Aggregate.own) :: acc) t.Aggregate.children in
      go tree []
    in
    List.iter
      (fun (loc, own) ->
        if own > 0.0 then begin
          let base_sum =
            List.fold_left
              (fun a (p, l, amt) ->
                if p = p0 && l = loc then a +. amt else a)
              0.0 structural.Baseline.rows
          in
          Alcotest.(check (float 1e-6)) ("agree at " ^ loc) own base_sum
        end)
      flat_own
  | [] -> Alcotest.fail "no distributions"

let test_consistency_check () =
  let med = fresh_mediator () in
  (* assertion-mode mediated base should carry no IC witnesses *)
  Alcotest.(check bool) "mediated base consistent" true (Mediator.consistent med)

(* -------------------------------------------------------------------- *)
(* Incremental maintenance + result cache (Figure 3's update arrow) *)

let test_incremental_updates () =
  (* IC mode with inheritance off keeps the mediated program stratified,
     so updates flow through Maintain instead of invalidating *)
  let config =
    {
      Mediator.default_config with
      Mediator.dl_mode = Dl.Translate.Ic;
      inheritance = false;
    }
  in
  let med = fresh_mediator ~config () in
  let q = "X : spine, X[diameter ->> D], D > 0.6" in
  let ask () =
    match Mediator.query_text med q with
    | Ok answers -> List.length answers
    | Error e -> Alcotest.fail e
  in
  (* the maintained IC witnesses must equal a cold materialization's,
     and no stratum may be rebuilt: changes reach the denials, which
     read isa and the domain map's dl_sat_k under negation, by polarity *)
  let witnesses m =
    List.sort compare
      (List.map
         (fun (w : Flogic.Ic.witness) ->
           Printf.sprintf "%s(%s)" w.Flogic.Ic.name
             (String.concat ", "
                (List.map Logic.Term.to_string w.Flogic.Ic.args)))
         (Mediator.violations m))
  in
  let check_maintained what =
    let cold = Mediator.create ~config Neuro.Anatom.full in
    List.iter
      (fun src ->
        match Mediator.register_source cold src with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      (Mediator.sources med);
    Alcotest.(check (list string))
      (what ^ ": violations == cold mediator")
      (witnesses cold) (witnesses med);
    match Mediator.last_maintenance med with
    | None -> Alcotest.fail "no maintenance report"
    | Some r ->
      Alcotest.(check int) (what ^ ": no stratum recomputed") 0
        r.Datalog.Maintain.recomputed
  in
  let n0 = ask () in
  Alcotest.(check int) "cached repeat agrees" n0 (ask ());
  let st = Mediator.cache_stats med in
  Alcotest.(check int) "one hit" 1 st.Mediator.hits;
  Alcotest.(check int) "one miss" 1 st.Mediator.misses;
  Alcotest.(check int) "one rebuild" 1 st.Mediator.rebuilt;
  let obs =
    [
      Molecule.Isa (s "live_1", s "spine_measure");
      Molecule.Meth_val (s "live_1", "diameter", Logic.Term.float 0.9);
      Molecule.Meth_val (s "live_1", "location", s "pyramidal_cell");
      Molecule.Meth_val (s "live_1", "species", Logic.Term.str "rat");
    ]
  in
  (match Mediator.update_source med ~source:"SYNAPSE" ~additions:obs () with
  | Ok (Some rep) ->
    Alcotest.(check bool) "facts added" true (rep.Datalog.Maintain.added > 0);
    Alcotest.(check bool) "touched predicates recorded" true
      (rep.Datalog.Maintain.touched <> [])
  | Ok None -> Alcotest.fail "update did not go through maintenance"
  | Error e -> Alcotest.fail e);
  check_maintained "addition";
  Alcotest.(check int) "new observation visible" (n0 + 1) (ask ());
  (match Mediator.last_maintenance med with
  | None -> Alcotest.fail "no maintenance report"
  | Some r -> Alcotest.(check bool) "strata walked" true (r.Datalog.Maintain.strata > 0));
  (* retract the same observation: the DRed path restores the old state *)
  (match Mediator.update_source med ~source:"SYNAPSE" ~deletions:obs () with
  | Ok (Some rep) ->
    Alcotest.(check bool) "facts removed" true (rep.Datalog.Maintain.removed > 0)
  | Ok None -> Alcotest.fail "deletion did not go through maintenance"
  | Error e -> Alcotest.fail e);
  check_maintained "retraction";
  Alcotest.(check int) "retraction restores answers" n0 (ask ());
  let st' = Mediator.cache_stats med in
  Alcotest.(check int) "still a single full rebuild" 1 st'.Mediator.rebuilt;
  Alcotest.(check bool) "two incremental passes" true (st'.Mediator.maintained >= 2);
  (* unknown sources are rejected without touching anything *)
  match Mediator.update_source med ~source:"NOWHERE" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown source accepted"

(* The default federation is unstratified: every domain-map edge runs
   as an assertion guarded by [not dl_sat_k(X)]. Its relaxation
   certifies itself, with no Γ applied, and equals the alternating
   fixpoint's model. One real has witness for a neuron makes that guard
   fire: the stratum continues from its relaxation, which is the first
   Γ of the alternation, so it applies two Γ where the alternating
   fixpoint from scratch applies three, and the witness turns the
   neuron's placeholder compartment off. *)
let test_certified_model () =
  let module D = Datalog.Database in
  let module W = Datalog.Wellfounded in
  let check name p wf ~facts ~alternations =
    let m = Lazy.force wf in
    let rep = ref Datalog.Engine.empty_report in
    let db =
      Datalog.Engine.materialize ~report:rep (Lazy.force p) (D.create ())
    in
    Alcotest.(check bool) (name ^ ": total") true (W.is_total m);
    Alcotest.(check int) (name ^ ": facts") facts (D.cardinal db);
    Alcotest.(check bool) (name ^ ": the well-founded model") true
      (D.equal db m.W.true_facts);
    Alcotest.(check bool) (name ^ ": unstratified") false
      !rep.Datalog.Engine.stratified;
    Alcotest.(check int) (name ^ ": alternations") alternations
      !rep.Datalog.Engine.alternations;
    db
  in
  ignore
    (check "default federation" Neuro_fixture.program Neuro_fixture.program_wf
       ~facts:16121 ~alternations:0);
  let db =
    check "firing guard" Neuro_fixture.with_witness
      Neuro_fixture.with_witness_wf ~facts:16127
      ~alternations:
        ((Lazy.force Neuro_fixture.with_witness_wf).W.alternations - 1)
  in
  Alcotest.(check (list string)) "the witness is the neuron's only part"
    [ Logic.Term.to_string Neuro_fixture.witness_compartment ]
    (List.map
       (fun tup -> Logic.Term.to_string (List.nth tup 1))
       (Datalog.Engine.answers db
          (Logic.Atom.make "has" [ Neuro_fixture.witness_neuron; v "Y" ])))

(* Result-cache keys are printed terms: two bounds that differ past the
   sixth significant digit must not share a cached answer. *)
let test_cache_keys_exact_floats () =
  let config =
    {
      Mediator.default_config with
      Mediator.dl_mode = Dl.Translate.Ic;
      inheritance = false;
    }
  in
  let with_observation () =
    let med = fresh_mediator ~config () in
    let id = s "live_near" in
    (match
       Mediator.update_source med ~source:"SYNAPSE"
         ~additions:
           [
             Molecule.Isa (id, s "spine_measure");
             Molecule.Meth_val (id, "diameter", Logic.Term.float 0.6000002);
             Molecule.Meth_val (id, "location", s "pyramidal_cell");
             Molecule.Meth_val (id, "species", Logic.Term.str "rat");
           ]
         ()
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    med
  in
  let count med bound =
    match
      Mediator.query_text med ("X : spine, X[diameter ->> D], D > " ^ bound)
    with
    | Ok answers -> List.length answers
    | Error e -> Alcotest.fail e
  in
  let med = with_observation () in
  let below = count med "0.6000001" in
  let at = count med "0.6000002" in
  let fresh = count (with_observation ()) "0.6000002" in
  Alcotest.(check int) "no stale cache hit across the bounds" fresh at;
  Alcotest.(check int) "the observation lies between the bounds" (fresh + 1)
    below

let suites =
  [
    ( "mediator.namespace",
      [ Alcotest.test_case "qualification" `Quick test_namespace ] );
    ( "mediator.registration",
      [
        Alcotest.test_case "register sources" `Quick test_registration;
        Alcotest.test_case "conceptual lifting" `Quick test_lifting;
        Alcotest.test_case "text queries" `Quick test_query_text;
        Alcotest.test_case "unsafe queries" `Quick test_unsafe_queries;
        Alcotest.test_case "IVDs" `Quick test_ivd;
        Alcotest.test_case "unsafe or undefined IVDs" `Quick test_bad_ivd;
        Alcotest.test_case "unsafe molecule-level IVD" `Quick
          test_bad_ivd_molecules;
        Alcotest.test_case "IVD cost budget" `Quick test_ivd_cost_budget;
        Alcotest.test_case "extend domain map" `Quick test_extend_dmap;
        Alcotest.test_case "register via XML" `Quick test_register_via_xml;
        Alcotest.test_case "consistency" `Quick test_consistency_check;
        Alcotest.test_case "incremental updates" `Quick test_incremental_updates;
        Alcotest.test_case "certified default federation" `Quick
          test_certified_model;
        Alcotest.test_case "cache keys keep float digits" `Quick
          test_cache_keys_exact_floats;
      ] );
    ( "mediator.selection",
      [ Alcotest.test_case "semantic index" `Quick test_source_selection ] );
    ( "mediator.section5",
      [
        Alcotest.test_case "answers" `Quick test_section5_answers;
        Alcotest.test_case "distribution rollup" `Quick test_section5_distribution_consistency;
        Alcotest.test_case "ablation: index" `Quick test_section5_ablation_index;
        Alcotest.test_case "ablation: pushdown" `Quick test_section5_ablation_pushdown;
        Alcotest.test_case "ablation: lub" `Quick test_section5_ablation_lub;
        Alcotest.test_case "pinned outcome" `Quick test_section5_pinned;
        Alcotest.test_case "closures follow extend_dmap" `Quick
          test_closures_follow_extend_dmap;
        Alcotest.test_case "no data" `Quick test_section5_no_data;
        Alcotest.test_case "example 4" `Quick test_example4_distribution;
      ] );
    ( "mediator.baseline",
      [
        Alcotest.test_case "agreement and cost" `Quick
          test_baseline_agrees_and_costs_more;
      ] );
  ]
