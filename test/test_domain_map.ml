(* Tests for domain maps: graph structure, closure operations, lub,
   semantic index, regions, dynamic registration (Fig 3), execution. *)

open Domain_map
module C = Dl.Concept

let n = C.name

(* -------------------------------------------------------------------- *)
(* Structure *)

let test_build_and_inspect () =
  let dm = Dmap.empty in
  let dm = Dmap.isa dm "spine" "compartment" in
  let dm = Dmap.ex dm ~role:"contains" "spine" "protein" in
  let dm = Dmap.all_ dm ~role:"has" "my_neuron" "my_dendrite" in
  Alcotest.(check bool) "concepts exist" true (Dmap.mem dm "spine" && Dmap.mem dm "protein");
  Alcotest.(check (list string)) "roles" [ "contains"; "has" ] (Dmap.roles dm);
  let nnodes, nedges = Dmap.size dm in
  Alcotest.(check int) "nodes" 5 nnodes;
  Alcotest.(check int) "edges" 3 nedges;
  Alcotest.(check int) "out edges of spine" 2 (List.length (Dmap.out_edges dm "spine"))

let test_anonymous_nodes () =
  let dm, or_id = Dmap.or_node Dmap.empty [ "gpe"; "gpi" ] in
  let dm = Dmap.ex dm ~role:"proj" "msn" or_id in
  Alcotest.(check (option Alcotest.bool)) "or kind" (Some true)
    (Option.map (fun k -> k = Dmap.Or_node) (Dmap.kind_of dm or_id));
  Alcotest.(check (list string)) "members" [ "gpe"; "gpi" ] (Dmap.members dm or_id);
  let links = Dmap.role_links dm "proj" in
  Alcotest.(check int) "no definite proj" 0 (List.length links.Dmap.definite);
  Alcotest.(check (list (pair string string))) "possible proj"
    [ ("msn", "gpe"); ("msn", "gpi") ]
    links.Dmap.possible;
  (* concepts excludes anonymous nodes *)
  Alcotest.(check bool) "anon not a concept" false
    (List.mem or_id (Dmap.concepts dm))

let test_axiom_roundtrip_fig1 () =
  let dm = Neuro.Anatom.fig1 in
  (match Dmap.validate dm with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fig1 invalid: %s" e);
  (* Round trip through axioms preserves the concept-level links. *)
  let dm2 = Dmap.of_axioms (Dmap.to_axioms dm) in
  let norm l = List.sort_uniq compare l in
  Alcotest.(check bool) "isa links preserved" true
    (norm (Dmap.isa_links dm).Dmap.definite = norm (Dmap.isa_links dm2).Dmap.definite);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " links preserved") true
        (norm (Dmap.role_links dm r).Dmap.definite
        = norm (Dmap.role_links dm2 r).Dmap.definite))
    (Dmap.roles dm)

let test_fig1_content () =
  let dm = Neuro.Anatom.fig1 in
  let isa = (Dmap.isa_links dm).Dmap.definite in
  Alcotest.(check bool) "purkinje isa spiny_neuron" true
    (List.mem ("purkinje_cell", "spiny_neuron") isa);
  Alcotest.(check bool) "spine isa ion_regulating_component" true
    (List.mem ("spine", "ion_regulating_component") isa);
  let has = (Dmap.role_links dm "has").Dmap.definite in
  Alcotest.(check bool) "dendrite has branch" true
    (List.mem ("dendrite", "branch") has);
  let contains = (Dmap.role_links dm "contains").Dmap.definite in
  Alcotest.(check bool) "spine contains ibp" true
    (List.mem ("spine", "ion_binding_protein") contains)

(* -------------------------------------------------------------------- *)
(* Closures *)

let test_tc () =
  let pairs = [ ("a", "b"); ("b", "c"); ("c", "d") ] in
  let tc = Closure.tc pairs in
  Alcotest.(check bool) "a->d" true (List.mem ("a", "d") tc);
  Alcotest.(check int) "6 pairs" 6 (List.length tc);
  (* idempotence *)
  Alcotest.(check bool) "idempotent" true
    (List.sort_uniq compare (Closure.tc tc) = List.sort_uniq compare tc)

let test_dc_propagation () =
  (* neuron has compartment; purkinje isa* neuron => purkinje has
     compartment (down); spine isa compartment => neuron has ... (up is
     about target generalisation: dendrite isa compartment, neuron has
     dendrite => neuron has compartment). *)
  let dm =
    Dmap.empty
    |> fun d -> Dmap.isa d "purkinje" "neuron"
    |> fun d -> Dmap.isa d "dendrite" "compartment"
    |> fun d -> Dmap.ex d ~role:"has" "neuron" "dendrite"
  in
  let star = Closure.has_a_star dm in
  Alcotest.(check bool) "base link kept" true (List.mem ("neuron", "dendrite") star);
  Alcotest.(check bool) "down: purkinje has dendrite" true
    (List.mem ("purkinje", "dendrite") star);
  Alcotest.(check bool) "up: neuron has compartment" true
    (List.mem ("neuron", "compartment") star);
  Alcotest.(check bool) "no invented links" false (List.mem ("dendrite", "neuron") star)

let test_has_a_star_not_transitive () =
  (* a has b, b has c: has_a_star must NOT contain (a, c) — the paper
     keeps the closure non-transitive and traverses recursively. *)
  let dm = Dmap.ex (Dmap.ex Dmap.empty ~role:"has" "a" "b") ~role:"has" "b" "c" in
  let star = Closure.has_a_star dm in
  Alcotest.(check bool) "direct links only" false (List.mem ("a", "c") star);
  (* but the recursive traversal reaches c *)
  Alcotest.(check (list string)) "traversal reaches all" [ "a"; "b"; "c" ]
    (Closure.reachable star "a")

let test_fig1_has_a_star () =
  (* The introduction's chain: purkinje/pyramidal cells have dendrites,
     dendrites have branches, branches (shafts) have spines. Following
     has links alone reaches spines (spiny neurons have spines by
     definition); reaching branches additionally requires descending
     the isa hierarchy mid-traversal (compartment ~> dendrite), which
     is what Region.downward does. *)
  let dm = Neuro.Anatom.fig1 in
  let star = Closure.has_a_star dm in
  Alcotest.(check bool) "purkinje has compartment (down+up)" true
    (List.mem ("purkinje_cell", "compartment") star);
  let from_purkinje = Closure.reachable star "purkinje_cell" in
  Alcotest.(check bool) "spines reachable from purkinje" true
    (List.mem "spine" from_purkinje);
  Alcotest.(check bool) "branch not reachable by has alone" false
    (List.mem "branch" from_purkinje);
  let region = Region.downward dm ~root:"purkinje_cell" () in
  Alcotest.(check bool) "branch in traversal region" true
    (Region.mem region "branch")

let test_descendants_ancestors () =
  let dm = Neuro.Anatom.fig1 in
  Alcotest.(check bool) "purkinje descendant of neuron" true
    (List.mem "purkinje_cell" (Closure.descendants dm "neuron"));
  Alcotest.(check bool) "ancestors of purkinje include neuron" true
    (List.mem "neuron" (Closure.ancestors dm "purkinje_cell"));
  (* eqv participates: spiny_neuron == neuron AND ∃has.spine gives
     spiny_neuron -> and-node; and isa through eqv symmetric *)
  Alcotest.(check bool) "self in descendants" true
    (List.mem "neuron" (Closure.descendants dm "neuron"))

(* -------------------------------------------------------------------- *)
(* Lub *)

let region_map =
  (* brain has cerebellum/hippocampus; both regions of brain.
     cerebellum has purkinje, hippocampus has pyramidal. *)
  Dmap.empty
  |> fun d -> Dmap.isa d "cerebellum" "brain_region"
  |> fun d -> Dmap.isa d "hippocampus" "brain_region"
  |> fun d -> Dmap.isa d "brain_region" "nervous_system_part"
  |> fun d -> Dmap.ex d ~role:"has" "brain" "cerebellum"
  |> fun d -> Dmap.ex d ~role:"has" "brain" "hippocampus"
  |> fun d -> Dmap.ex d ~role:"has" "cerebellum" "purkinje_layer"
  |> fun d -> Dmap.isa d "purkinje_layer" "cell_layer"

let test_lub () =
  Alcotest.(check (list string)) "common ancestor"
    [ "brain_region" ]
    (Lub.lub region_map [ "cerebellum"; "hippocampus" ]);
  Alcotest.(check (option string)) "unique" (Some "brain_region")
    (Lub.lub_unique region_map [ "cerebellum"; "hippocampus" ]);
  Alcotest.(check (list string)) "lub of single" [ "cerebellum" ]
    (Lub.lub region_map [ "cerebellum" ]);
  Alcotest.(check (option string)) "disjoint concepts" None
    (Lub.lub_unique region_map [ "cerebellum"; "unrelated" ])

let test_lub_minimality () =
  (* both brain_region and nervous_system_part are common ancestors;
     lub keeps only the minimal one. *)
  let lubs = Lub.lub region_map [ "cerebellum"; "hippocampus" ] in
  Alcotest.(check bool) "nervous_system_part excluded" false
    (List.mem "nervous_system_part" lubs)

let test_glb () =
  let dm =
    Dmap.empty
    |> fun d -> Dmap.isa d "x" "a"
    |> fun d -> Dmap.isa d "x" "b"
    |> fun d -> Dmap.isa d "y" "x"
  in
  Alcotest.(check (list string)) "glb is maximal common descendant" [ "x" ]
    (Lub.glb dm [ "a"; "b" ])

(* -------------------------------------------------------------------- *)
(* Semantic index *)

let sample_index =
  Index.empty
  |> fun i ->
  Index.add i ~source:"SYNAPSE" ~cm_class:"spine_measurement"
    ~concept:"spine" ~context:[ "hippocampus" ] ()
  |> fun i ->
  Index.add i ~source:"NCMIR" ~cm_class:"protein_amount" ~concept:"purkinje_cell" ()
  |> fun i ->
  Index.add i ~source:"SENSELAB" ~cm_class:"neurotransmission" ~concept:"neurotransmission" ()

let test_index_basics () =
  Alcotest.(check (list string)) "sources" [ "NCMIR"; "SENSELAB"; "SYNAPSE" ]
    (Index.sources sample_index);
  Alcotest.(check (list string)) "concepts of class" [ "spine" ]
    (Index.concepts_of sample_index ~source:"SYNAPSE" ~cm_class:"spine_measurement")

let test_index_source_selection () =
  let dm = Neuro.Anatom.fig1 in
  (* Asking at 'compartment' must find SYNAPSE (spine isa* compartment
     via spine -> ion_regulating_component? no: spine is a compartment
     via shaft/branch? spine isa compartment does not hold in fig1) —
     use 'ion_regulating_component' instead, which spine isa's. *)
  Alcotest.(check (list string)) "descendant anchoring found" [ "SYNAPSE" ]
    (Index.sources_at dm sample_index ~concept:"ion_regulating_component");
  (* purkinje data answers spiny_neuron questions *)
  Alcotest.(check (list string)) "NCMIR at spiny_neuron" [ "NCMIR" ]
    (Index.sources_at dm sample_index ~concept:"spiny_neuron");
  (* exact concept *)
  Alcotest.(check (list string)) "exact" [ "SYNAPSE" ]
    (Index.sources_at dm sample_index ~concept:"spine");
  (* nothing anchored *)
  Alcotest.(check (list string)) "none" []
    (Index.sources_at dm sample_index ~concept:"soma");
  Alcotest.(check (list string)) "multi-concept union" [ "NCMIR"; "SYNAPSE" ]
    (Index.sources_for dm sample_index ~concepts:[ "spine"; "purkinje_cell" ])

let test_index_remove () =
  let i = Index.remove_source sample_index "NCMIR" in
  Alcotest.(check (list string)) "removed" [ "SENSELAB"; "SYNAPSE" ] (Index.sources i)

(* -------------------------------------------------------------------- *)
(* Region of correspondence *)

let test_region_downward () =
  let dm = Neuro.Anatom.fig1 in
  let r = Region.downward dm ~root:"dendrite" () in
  Alcotest.(check bool) "contains spine" true (Region.mem r "spine");
  Alcotest.(check bool) "contains branch" true (Region.mem r "branch");
  Alcotest.(check bool) "excludes soma" false (Region.mem r "soma")

let test_region_correspondence () =
  let dm = Neuro.Anatom.fig1 in
  let idx =
    Index.empty
    |> fun i -> Index.add i ~source:"SYNAPSE" ~cm_class:"m" ~concept:"spine" ()
    |> fun i -> Index.add i ~source:"NCMIR" ~cm_class:"p" ~concept:"dendrite" ()
  in
  match Region.correspondence dm idx ~source1:"SYNAPSE" ~source2:"NCMIR" () with
  | None -> Alcotest.fail "expected a region"
  | Some r ->
    Alcotest.(check bool) "covers spine" true (Region.mem r "spine");
    Alcotest.(check bool) "covers dendrite" true (Region.mem r "dendrite");
    Alcotest.(check bool) "root in region" true (Region.mem r r.Region.root)

(* -------------------------------------------------------------------- *)
(* Registration (Fig 3) *)

let test_register_fig3 () =
  let dm = Neuro.Anatom.fig3_base in
  match Register.register dm Neuro.Anatom.fig3_registration with
  | Error e -> Alcotest.failf "registration failed: %s" e
  | Ok out ->
    Alcotest.(check (list string)) "new concepts"
      [ "my_dendrite"; "my_neuron" ]
      out.Register.added_concepts;
    let dm' = out.Register.dmap in
    (* my_neuron isa medium_spiny_neuron *)
    Alcotest.(check bool) "my_neuron placed" true
      (List.mem "medium_spiny_neuron" (Closure.ancestors dm' "my_neuron"));
    (* inherited + refined projection: my_neuron definitely projects to
       globus_pallidus_external *)
    let proj = (Dmap.role_links dm' "proj").Dmap.definite in
    Alcotest.(check bool) "definite projection" true
      (List.mem ("my_neuron", "globus_pallidus_external") proj);
    (* the base MSN keeps only possible projections *)
    let poss = (Dmap.role_links dm' "proj").Dmap.possible in
    Alcotest.(check bool) "msn possible projection" true
      (List.mem ("medium_spiny_neuron", "globus_pallidus_external") poss);
    Alcotest.(check bool) "msn has no definite projection" false
      (List.exists (fun (a, _) -> a = "medium_spiny_neuron") proj)

let test_register_unknown_warns () =
  let dm = Neuro.Anatom.fig3_base in
  let ax = [ C.subsumes (n "brand_new") (n "never_heard_of") ] in
  (match Register.register dm ax with
  | Ok out -> Alcotest.(check bool) "warned" true (out.Register.warnings <> [])
  | Error e -> Alcotest.failf "non-strict must accept: %s" e);
  match Register.register ~strict:true dm ax with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict must reject unknown concepts"

let test_register_unsat_rejected () =
  let dm =
    Dmap.of_axioms
      [
        C.subsumes (n "a") (n "b");
        C.subsumes (C.conj [ n "b"; n "c" ]) C.Bot;
      ]
  in
  let ax = [ C.subsumes (n "bad") (C.conj [ n "a"; n "c" ]) ] in
  match Register.register dm ax with
  | Error e ->
    Alcotest.(check bool) "mentions unsatisfiability" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "unsatisfiable registration accepted"

let test_register_classification () =
  let dm = Neuro.Anatom.fig3_base in
  match Register.register dm Neuro.Anatom.fig3_registration with
  | Error e -> Alcotest.failf "registration failed: %s" e
  | Ok out ->
    (* my_neuron's EL-classifiable subsumers include the MSN chain. *)
    (match Register.classification out.Register.dmap "my_neuron" with
    | Ok supers ->
      Alcotest.(check bool) "classified under spiny_neuron" true
        (List.mem "spiny_neuron" supers && List.mem "neuron" supers)
    | Error f -> Alcotest.failf "classification failed: %s" f)

(* -------------------------------------------------------------------- *)
(* Execution on the engine *)

let test_to_program_closures () =
  let dm = Neuro.Anatom.fig1 in
  let t, _warnings = To_program.program ~include_instance_rules:false dm in
  let db = Flogic.Fl_program.run t in
  let s = Logic.Term.sym in
  (* engine-level has_a_star matches the pure-OCaml closure *)
  let star_engine =
    Datalog.Engine.answers db
      (Logic.Atom.make To_program.has_a_star_p [ Logic.Term.var "X"; Logic.Term.var "Y" ])
    |> List.filter_map (function
         | [ Logic.Term.Const (Logic.Term.Sym a); Logic.Term.Const (Logic.Term.Sym b) ] ->
           Some (a, b)
         | _ -> None)
    |> List.sort_uniq compare
  in
  let star_ocaml = List.sort_uniq compare (Closure.has_a_star dm) in
  Alcotest.(check int) "same cardinality" (List.length star_ocaml)
    (List.length star_engine);
  Alcotest.(check bool) "same content" true (star_engine = star_ocaml);
  Alcotest.(check bool) "tc_isa present" true
    (Datalog.Database.mem db
       (Logic.Atom.make To_program.tc_isa_p [ s "purkinje_cell"; s "neuron" ]))

let test_to_program_quadratic_equivalent () =
  let dm = Neuro.Anatom.fig1 in
  let run quadratic_tc =
    let t, _ = To_program.program ~quadratic_tc ~include_instance_rules:false dm in
    let db = Flogic.Fl_program.run t in
    Datalog.Engine.answers db
      (Logic.Atom.make To_program.tc_isa_p [ Logic.Term.var "X"; Logic.Term.var "Y" ])
    |> List.length
  in
  Alcotest.(check int) "linear = quadratic tc" (run false) (run true)

let test_instance_level_execution () =
  (* Fig 1 in assertion mode: a concrete purkinje cell gets placeholder
     structure obeying the domain knowledge. *)
  let dm = Neuro.Anatom.fig1 in
  let t, _ = To_program.program ~mode:Dl.Translate.Assertion dm in
  let s = Logic.Term.sym in
  let t = Flogic.Fl_program.add_facts t [ Flogic.Molecule.isa (s "p1") (s "purkinje_cell") ] in
  let db = Flogic.Fl_program.run t in
  (* p1 is classified upward... *)
  Alcotest.(check bool) "isa spiny_neuron" true
    (List.mem (s "p1") (Flogic.Fl_program.instances_of db "spiny_neuron"));
  (* ...and the ∃has.spine of spiny_neuron materialises a placeholder. *)
  let spines = Flogic.Fl_program.instances_of db "spine" in
  Alcotest.(check bool) "placeholder spine exists" true
    (List.exists Dl.Translate.is_placeholder spines)

(* -------------------------------------------------------------------- *)
(* Closures memoised per map value, against from-scratch references *)

module SS = Set.Make (String)

(* The references recompute everything from the map's edge lists and
   share no code with Closure's memo. *)
let ref_reach pairs root =
  let adj = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.add adj a b) pairs;
  let rec go seen n =
    if SS.mem n seen then seen
    else List.fold_left go (SS.add n seen) (Hashtbl.find_all adj n)
  in
  SS.elements (go SS.empty root)

let ref_links ~possible (l : Dmap.links) =
  if possible then l.Dmap.definite @ l.Dmap.possible else l.Dmap.definite

let ref_isa ?(possible = false) dm =
  let base =
    ref_links ~possible (Dmap.isa_links dm)
    @ List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) (Dmap.eqv_links dm)
  in
  List.sort_uniq compare (List.map fst base)
  |> List.concat_map (fun a ->
         List.filter_map
           (fun b -> if String.equal a b then None else Some (a, b))
           (ref_reach base a))
  |> List.sort_uniq compare

let ref_traversal ?(possible = false) dm =
  let isa = ref_isa ~possible dm in
  let base = ref_links ~possible (Dmap.role_links dm "has") in
  let inherited =
    List.concat_map
      (fun (z, y) ->
        (z, y)
        :: List.filter_map (fun (x, z') -> if z' = z then Some (x, y) else None) isa)
      base
  in
  List.sort_uniq compare (inherited @ List.map (fun (a, b) -> (b, a)) isa)

let ref_down isa c =
  List.sort_uniq compare
    (c :: List.filter_map (fun (a, b) -> if b = c then Some a else None) isa)

let ref_up isa c =
  List.sort_uniq compare
    (c :: List.filter_map (fun (a, b) -> if a = c then Some b else None) isa)

let ref_lub_unique isa cs =
  match List.map (fun c -> SS.of_list (ref_up isa c)) cs with
  | [] -> None
  | s :: rest -> (
    let common = SS.elements (List.fold_left SS.inter s rest) in
    let below a b = a <> b && List.mem b (ref_up isa a) in
    let size c = List.length (ref_down isa c) in
    match
      List.filter (fun c -> not (List.exists (fun c' -> below c' c) common)) common
    with
    | [] -> None
    | cands ->
      Some (List.hd (List.sort (fun a b -> compare (size a, a) (size b, b)) cands)))

let ref_of_concepts dm ~isa ~trav cs =
  let downward root = { Region.root; members = ref_reach trav root } in
  let covering root =
    let r = downward root in
    if List.for_all (fun c -> List.mem c r.Region.members) cs then Some r
    else None
  in
  match Option.bind (ref_lub_unique isa cs) covering with
  | Some r -> Some r
  | None -> (
    match
      List.filter_map covering (Dmap.concepts dm)
      |> List.sort (fun a b ->
             compare
               (List.length a.Region.members, a.Region.root)
               (List.length b.Region.members, b.Region.root))
    with
    | r :: _ -> Some r
    | [] -> None)

let ref_sources_for_pairs ~isa ~trav index pairs =
  let anchors = Index.anchors index in
  let covering c =
    let below = ref_down isa c in
    List.filter (fun a -> List.mem a.Index.concept below) anchors
  in
  let compatible a q =
    a.Index.context = []
    || List.exists
         (fun ctx -> List.mem q (ref_reach trav ctx) || ctx = q)
         a.Index.context
  in
  List.concat_map
    (fun (n, c) ->
      List.filter_map
        (fun a -> if compatible a n then Some a.Index.source else None)
        (covering c @ covering n))
    pairs
  |> List.sort_uniq compare

let ref_distribution ~trav ~root ~measure =
  let succ c =
    List.sort_uniq compare
      (List.filter_map (fun (a, b) -> if a = c then Some b else None) trav)
  in
  let visited = Hashtbl.create 64 in
  let rec go concept =
    Hashtbl.add visited concept ();
    let own = List.fold_left ( +. ) 0.0 (measure concept) in
    let children =
      List.filter_map
        (fun c -> if Hashtbl.mem visited c then None else Some (go c))
        (succ concept)
    in
    let total =
      List.fold_left (fun t ch -> t +. ch.Mediation.Aggregate.total) own children
    in
    { Mediation.Aggregate.concept; own; total; children }
  in
  go root

let memo_maps () =
  let fig3 =
    match Register.register Neuro.Anatom.fig3_base Neuro.Anatom.fig3_registration with
    | Ok out -> out.Register.dmap
    | Error e -> Alcotest.failf "fig3 registration: %s" e
  in
  [
    ("fig1", Neuro.Anatom.fig1);
    ("full", Neuro.Anatom.full);
    ("fig3 base", Neuro.Anatom.fig3_base);
    ("fig3 registered", fig3);
  ]
  @ List.map
      (fun (concepts, seed) ->
        ( Printf.sprintf "sprawl %d/%d" concepts seed,
          Neuro.Anatom.sprawl ~concepts ~seed ))
      [ (20, 1); (60, 2); (60, 3); (150, 4) ]

let sample rng xs k = List.init k (fun _ -> List.nth xs (Random.State.int rng (List.length xs)))

(* Each memoised operation is called twice (the fill, then a hit) and
   must equal the reference both times. *)
let test_memo_matches_reference () =
  let pairs = Alcotest.(list (pair string string)) in
  let strings = Alcotest.(list string) in
  let region = Alcotest.(option (pair string (list string))) in
  let of_region = Option.map (fun r -> (r.Region.root, r.Region.members)) in
  List.iter
    (fun (name, dm) ->
      let rng = Random.State.make [| Hashtbl.hash name |] in
      let isa = ref_isa dm and trav = ref_traversal dm in
      let concepts = Dmap.concepts dm in
      for _ = 1 to 2 do
        Alcotest.check pairs (name ^ ": isa_tc") isa (Closure.isa_tc dm);
        Alcotest.check pairs (name ^ ": isa_tc with possible")
          (ref_isa ~possible:true dm)
          (Closure.isa_tc ~include_possible:true dm);
        Alcotest.check pairs (name ^ ": traversal") trav (Closure.traversal dm);
        Alcotest.check pairs (name ^ ": traversal with possible")
          (ref_traversal ~possible:true dm)
          (Closure.traversal ~include_possible:true dm);
        List.iter
          (fun c ->
            Alcotest.check strings (name ^ ": descendants " ^ c) (ref_down isa c)
              (Closure.descendants dm c);
            Alcotest.check strings (name ^ ": ancestors " ^ c) (ref_up isa c)
              (Closure.ancestors dm c);
            Alcotest.check strings (name ^ ": downward " ^ c) (ref_reach trav c)
              (Region.downward dm ~root:c ()).Region.members)
          ("not_a_concept" :: concepts);
        for k = 1 to 12 do
          let cs = sample rng concepts (1 + (k mod 3)) in
          let label = name ^ ": {" ^ String.concat ", " cs ^ "}" in
          Alcotest.(check (option string)) (label ^ " lub_unique")
            (ref_lub_unique isa cs) (Lub.lub_unique dm cs);
          Alcotest.check region (label ^ " of_concepts")
            (of_region (ref_of_concepts dm ~isa ~trav cs))
            (of_region (Region.of_concepts dm cs))
        done;
        let index =
          List.fold_left
            (fun i k ->
              let context = if k mod 2 = 0 then sample rng concepts 1 else [] in
              Index.add i
                ~source:(Printf.sprintf "S%d" (k mod 3))
                ~cm_class:(Printf.sprintf "c%d" k)
                ~concept:(List.hd (sample rng concepts 1))
                ~context ())
            Index.empty (List.init 8 Fun.id)
        in
        let ps = List.combine (sample rng concepts 5) (sample rng concepts 5) in
        Alcotest.check strings (name ^ ": sources_for_pairs")
          (ref_sources_for_pairs ~isa ~trav index ps)
          (Index.sources_for_pairs dm index ~pairs:ps);
        let measure c = [ float_of_int (Hashtbl.hash c mod 7) ] in
        List.iter
          (fun root ->
            Alcotest.(check bool)
              (name ^ ": distribution from " ^ root)
              true
              (ref_distribution ~trav ~root ~measure
              = Mediation.Aggregate.distribution dm ~root ~measure))
          (sample rng concepts 3)
      done)
    (memo_maps ())

(* A second call on the same map value reads the memo: it allocates a
   small fraction of what the first call, which computes the closures,
   does. The map is a value no earlier call has seen. *)
let test_memo_second_call_is_cheap () =
  let dm = Dmap.add_concept Neuro.Anatom.full "memo_probe" in
  let locations = [ "dendrite"; "purkinje_cell"; "spine" ] in
  let words () =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Region.of_concepts dm locations));
    Gc.minor_words () -. w0
  in
  let first = words () in
  let second = words () in
  Alcotest.(check bool)
    (Printf.sprintf "second call %.0f words < first call %.0f / 10" second first)
    true
    (second < first /. 10.)

let suites =
  [
    ( "dmap.structure",
      [
        Alcotest.test_case "build/inspect" `Quick test_build_and_inspect;
        Alcotest.test_case "anonymous nodes" `Quick test_anonymous_nodes;
        Alcotest.test_case "fig1 axiom roundtrip" `Quick test_axiom_roundtrip_fig1;
        Alcotest.test_case "fig1 content" `Quick test_fig1_content;
      ] );
    ( "dmap.closure",
      [
        Alcotest.test_case "tc" `Quick test_tc;
        Alcotest.test_case "dc propagation" `Quick test_dc_propagation;
        Alcotest.test_case "has_a_star non-transitive" `Quick test_has_a_star_not_transitive;
        Alcotest.test_case "fig1 has_a_star" `Quick test_fig1_has_a_star;
        Alcotest.test_case "descendants/ancestors" `Quick test_descendants_ancestors;
      ] );
    ( "dmap.lub",
      [
        Alcotest.test_case "lub" `Quick test_lub;
        Alcotest.test_case "minimality" `Quick test_lub_minimality;
        Alcotest.test_case "glb" `Quick test_glb;
      ] );
    ( "dmap.index",
      [
        Alcotest.test_case "basics" `Quick test_index_basics;
        Alcotest.test_case "source selection" `Quick test_index_source_selection;
        Alcotest.test_case "remove source" `Quick test_index_remove;
      ] );
    ( "dmap.memo",
      [
        Alcotest.test_case "memo = from-scratch reference" `Quick
          test_memo_matches_reference;
        Alcotest.test_case "second call reads the memo" `Quick
          test_memo_second_call_is_cheap;
      ] );
    ( "dmap.region",
      [
        Alcotest.test_case "downward" `Quick test_region_downward;
        Alcotest.test_case "correspondence" `Quick test_region_correspondence;
      ] );
    ( "dmap.register",
      [
        Alcotest.test_case "fig3 registration" `Quick test_register_fig3;
        Alcotest.test_case "unknown concepts" `Quick test_register_unknown_warns;
        Alcotest.test_case "unsat rejected" `Quick test_register_unsat_rejected;
        Alcotest.test_case "classification" `Quick test_register_classification;
      ] );
    ( "dmap.execute",
      [
        Alcotest.test_case "closure rules" `Quick test_to_program_closures;
        Alcotest.test_case "quadratic tc equivalent" `Quick test_to_program_quadratic_equivalent;
        Alcotest.test_case "instance level" `Quick test_instance_level_execution;
      ] );
  ]
