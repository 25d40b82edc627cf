module A = Analysis
module Molecule = Flogic.Molecule
module Dmap = Domain_map.Dmap
module Index = Domain_map.Index
module Source = Wrapper.Source

let class_targets m c =
  let dm = Mediator.dmap m in
  match Namespace.split c with
  | Some (src, cls) when Mediator.find_source m src <> None -> [ (src, cls) ]
  | _ ->
    if Dmap.mem dm c then
      Index.coverage dm (Mediator.index m) ~concept:c
      |> List.map (fun (s, qcls) ->
             match Namespace.split qcls with
             | Some (s', cls) when String.equal s s' -> (s, cls)
             | _ -> (s, qcls))
    else []

let source_infos m = List.map A.Cap_lint.of_source (Mediator.sources m)

let source_names m = List.map Source.name (Mediator.sources m)

let class_sources m c =
  let dm = Mediator.dmap m in
  if Dmap.mem dm c then Index.sources_at dm (Mediator.index m) ~concept:c
  else []

let query m ?label lits =
  A.Cap_lint.feasibility ~sources:(source_infos m)
    ~class_targets:(class_targets m) ?label lits
  @ A.Prov_lint.query_diags ~sources:(source_names m) ?label lits

let provenance m =
  A.Prov_lint.analyze ~require_sources:true ~sources:(source_names m)
    ~class_sources:(class_sources m) (Mediator.ivds m)

let blast_radius m =
  (* which derived predicates each source can transitively reach —
     the static counterpart of a completeness report's [suspect] set *)
  let result =
    A.Prov_lint.analyze ~sources:(source_names m)
      ~class_sources:(class_sources m)
      (Mediator.program m).Flogic.Fl_program.rules
  in
  List.map
    (fun s ->
      let name = Source.name s in
      let reach =
        List.filter_map
          (fun (p, srcs) ->
            if List.exists (String.equal name) srcs then Some p else None)
          result.A.Prov_lint.predicates
        |> List.sort_uniq String.compare
      in
      (name, reach))
    (Mediator.sources m)

let federation m =
  let dm = Mediator.dmap m in
  let known_class c = Dmap.mem dm c in
  let anchors = Index.anchors (Mediator.index m) in
  let infos = source_infos m in
  let dmap_diags = A.Dmap_lint.lint ~anchors dm in
  let schema_diags =
    List.concat_map
      (fun s -> A.Schema_lint.lint ~known_class (Source.schema s))
      (Mediator.sources m)
  in
  let template_diags = List.concat_map A.Cap_lint.lint_templates infos in
  let cones =
    {
      A.Absint.members = Domain_map.Closure.descendants dm;
      lub = (fun cs -> Domain_map.Lub.lub_unique dm cs);
    }
  in
  let program_diags =
    A.Kindlint.lint_program ~known_class ~cones ~sources:(source_names m)
      ~class_sources:(class_sources m)
      ?budget:(Mediator.config m).Mediator.cost_budget
      ~seed:(Mediator.cardinality_seed m) ~dm (Mediator.program m)
  in
  (* pass 9 across the installed views: a view contained in the views
     installed before it (modulo the domain map) adds no answers *)
  let ivd_redundant =
    let ivds = Mediator.ivds m in
    if List.length ivds < 2 then []
    else
      match
        try
          Ok
            (List.map
               (fun r -> (r, Flogic.Compile.rule (Mediator.signature m) r))
               ivds)
        with Flogic.Compile.Compile_error _ -> Error ()
      with
      | Error () -> [] (* surfaces as a compile error elsewhere *)
      | Ok compiled ->
        let ctx = A.Contain.make_ctx ~dm () in
        List.concat
          (List.mapi
             (fun i (r, cand) ->
               let against =
                 List.concat
                   (List.filteri (fun j _ -> j < i) (List.map snd compiled))
               in
               if
                 against <> [] && cand <> []
                 && A.Contain.redundant_view ctx ~against cand
               then
                 [
                   A.Diagnostic.make ~severity:A.Diagnostic.Warning
                     ~pass:"contain" ~code:"redundant-ivd"
                     ~location:
                       (A.Diagnostic.Query (Molecule.rule_to_string r))
                     "this view is contained in the views installed before \
                      it; it adds no answers"
                     ~hint:"drop the view or generalize it";
                 ]
               else [])
             compiled)
  in
  let ivd_prov = (provenance m).A.Prov_lint.diags in
  let ivd_caps =
    List.concat_map
      (fun (r : Molecule.rule) ->
        let label = Molecule.rule_to_string r in
        let diags, stats =
          A.Cap_lint.feasibility_stats ~sources:infos
            ~class_targets:(class_targets m) ~label r.Molecule.body
        in
        (* pass 7 × pass 4: a view may draw from sources on paper, yet
           every subgoal that could reach one is unanswerable *)
        if
          stats.A.Cap_lint.source_subgoals > 0
          && stats.A.Cap_lint.infeasible_subgoals
             = stats.A.Cap_lint.source_subgoals
        then
          diags
          @ [
              A.Diagnostic.make ~severity:A.Diagnostic.Warning
                ~pass:"provenance" ~code:"infeasible-provenance"
                ~location:(A.Diagnostic.Query label)
                "every source-bearing subgoal of this view is infeasible; \
                 no source data can ever reach it"
                ~hint:
                  "fix the capability or coverage problems reported on its \
                   subgoals, or drop the view";
            ]
        else diags)
      (Mediator.ivds m)
  in
  A.Diagnostic.sort
    (A.Diagnostic.normalize
       (dmap_diags @ schema_diags @ template_diags @ program_diags
      @ ivd_redundant @ ivd_prov @ ivd_caps))

(* The full cost analysis of the federation program — what
   [kindctl cost --demo] renders: per-predicate cardinality intervals,
   per-rule orders/estimates, and the hazard diagnostics. *)
let cost ?budget m =
  let budget =
    match budget with
    | Some _ -> budget
    | None -> (Mediator.config m).Mediator.cost_budget
  in
  match Flogic.Fl_program.compile (Mediator.program m) with
  | Error e ->
    {
      A.Cost_lint.empty with
      A.Cost_lint.diags =
        [
          A.Diagnostic.make ~severity:A.Diagnostic.Error ~pass:"rules"
            ~code:"compile-error" ~location:A.Diagnostic.Federation e;
        ];
    }
  | Ok dp ->
    let rules = Datalog.Program.rules dp in
    let report =
      A.Cost_lint.analyze ?budget
        ~assume_nonempty:
          (A.Kindlint.open_predicate
             ~signature:(Mediator.program m).Flogic.Fl_program.signature
             rules)
        ~seed:(Mediator.cardinality_seed m) rules
    in
    { report with A.Cost_lint.diags = A.Diagnostic.normalize report.A.Cost_lint.diags }
