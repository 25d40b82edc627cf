module Term = Logic.Term
module Molecule = Flogic.Molecule

let class_name = "protein_distribution"

let schema_rules =
  let c = Term.sym class_name in
  [
    Molecule.fact (Molecule.pred Flogic.Compile.class_p [ c ]);
    Molecule.fact (Molecule.meth_sig c "protein_name" (Term.sym "string"));
    Molecule.fact (Molecule.meth_sig c "animal" (Term.sym "string"));
    Molecule.fact (Molecule.meth_sig c "ion_bound" (Term.sym "ion"));
    Molecule.fact (Molecule.meth_sig c "distribution_root" (Term.sym "anatomical_term"));
    Molecule.fact (Molecule.meth_sig c "distribution" (Term.sym "dist_tree"));
  ]

let instance_facts ~protein ~organism ~ion ~root tree =
  let id = Term.app "pd" [ Term.sym protein; Term.str organism; Term.sym root ] in
  let base =
    [
      Molecule.Isa (id, Term.sym class_name);
      Molecule.Meth_val (id, "protein_name", Term.sym protein);
      Molecule.Meth_val (id, "animal", Term.str organism);
      Molecule.Meth_val (id, "ion_bound", Term.sym ion);
      Molecule.Meth_val (id, "distribution_root", Term.sym root);
      Molecule.Meth_val (id, "distribution", Aggregate.to_term tree);
    ]
  in
  let levels =
    List.map
      (fun (concept, total) ->
        Molecule.Pred
          (Logic.Atom.make "pd_level"
             [ id; Term.sym concept; Term.float total ]))
      (Aggregate.flatten tree)
  in
  base @ levels

let materialize_distributions ?spec med ~organism ~ion ~root =
  let default = Section5.default_spec in
  let sp = Option.value ~default spec in
  (* discover the ion-binding proteins available under the root *)
  let region = Domain_map.Region.downward (Mediator.dmap med) ~root () in
  let sources =
    Mediator.select_sources med ~concepts:region.Domain_map.Region.members
  in
  let proteins =
    List.concat_map
      (fun src_name ->
        (* fetch through the fault-tolerance stack: a skipped source
           contributes nothing rather than sinking the whole IVD *)
        match
          Mediator.fetch med ~source:src_name (fun src ->
              try
                Wrapper.Source.fetch_instances src
                  ~cls:sp.Section5.protein_class
                  ~selections:
                    [ (sp.Section5.ion_field, Logic.Literal.Eq, Term.sym ion) ]
                |> List.concat_map (fun (o : Wrapper.Store.obj) ->
                       List.filter_map
                         (fun (m, v) ->
                           if String.equal m sp.Section5.name_field then
                             Term.as_string v
                           else None)
                         o.Wrapper.Store.values)
              with Wrapper.Source.Unsupported _ -> [])
        with
        | Ok names -> names
        | Error _ -> [])
      sources
    |> List.sort_uniq String.compare
  in
  let facts = ref schema_rules in
  let count = ref 0 in
  let rec collect = function
    | [] -> Ok ()
    | p :: rest -> (
      match Section5.protein_distribution ?spec med ~protein:p ~organism ~root with
      | Ok tree ->
        incr count;
        facts :=
          !facts
          @ List.map Molecule.fact (instance_facts ~protein:p ~organism ~ion ~root tree);
        collect rest
      | Error _ -> collect rest (* protein not observed under this root *))
  in
  match collect proteins with
  | Error e -> Error e
  | Ok () ->
    if !count = 0 then
      Error (Printf.sprintf "no %s-binding protein has data under %s" ion root)
    else Result.map (fun () -> !count) (Mediator.add_ivd med !facts)

let answer_query ?spec med ~organism ~transmitting_compartment ~ion =
  match
    Section5.calcium_binding_query ?spec med ~organism ~transmitting_compartment
      ~ion ()
  with
  | Error e -> Error e
  | Ok outcome -> (
    match outcome.Section5.root with
    | None -> Error "no distribution root"
    | Some root -> (
      match materialize_distributions ?spec med ~organism ~ion ~root with
      | Error e -> Error e
      | Ok _ ->
        (* the paper's answer(P, D) over mediated classes *)
        let v = Term.var in
        Ok
          (Mediator.query med
             [
               Molecule.Pos (Molecule.Isa (v "D", Term.sym class_name));
               Molecule.Pos (Molecule.Meth_val (v "D", "protein_name", v "P"));
               Molecule.Pos (Molecule.Meth_val (v "D", "ion_bound", Term.sym ion));
               Molecule.Pos
                 (Molecule.Meth_val (v "D", "distribution_root", Term.sym root));
             ])))
