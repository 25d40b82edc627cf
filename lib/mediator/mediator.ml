module Term = Logic.Term
module Molecule = Flogic.Molecule
module Signature = Flogic.Signature
module Dmap = Domain_map.Dmap
module Index = Domain_map.Index
module Source = Wrapper.Source

type lint_policy = Lint_off | Lint_warn | Lint_reject

type config = {
  dl_mode : Dl.Translate.mode;
  use_semantic_index : bool;
  pushdown : bool;
  use_lub : bool;
  inheritance : bool;
  lint : lint_policy;
  prune_dead : bool;
  runtime : Runtime.policy;
  cost_budget : int option;
  durability : Datalog.Store.durability option;
}

let default_config =
  {
    dl_mode = Dl.Translate.Assertion;
    use_semantic_index = true;
    pushdown = true;
    use_lub = true;
    inheritance = false;
    lint = Lint_warn;
    prune_dead = false;
    runtime = Runtime.default_policy;
    cost_budget = None;
    durability = None;
  }

module SSet = Set.Make (String)

type cache_stats = {
  hits : int;
  misses : int;
  invalidated : int;
  maintained : int;
  rebuilt : int;
}

let empty_cache_stats =
  { hits = 0; misses = 0; invalidated = 0; maintained = 0; rebuilt = 0 }

type cache_entry = { answers : Logic.Subst.t list; reads : SSet.t }

type completeness = {
  contributed : string list;
  skipped : (string * string) list;
  suspect : string list;
}

type t = {
  mutable dmap : Dmap.t;
  mutable index : Index.t;
  mutable sources : Source.t list;  (* registration order *)
  mutable ivds : Molecule.rule list;
  mutable sg : Signature.t;
  mutable cache : Datalog.Database.t option;
  mutable maint : Datalog.Maintain.t option;
      (* incremental-maintenance handle over [cache]; [None] when the
         program is unstratified (its well-founded model) *)
  mutable last_maintenance : Datalog.Maintain.report option;
  qcache : (string, cache_entry) Hashtbl.t;
  mutable cstats : cache_stats;
  mutable warnings : string list;
  mutable cfg : config;
  plugins : Cm_plugins.Plugin.registry;
  channels : (string, Wrapper.Fault.t) Hashtbl.t;
  runtime : Runtime.t;
  mutable last_completeness : completeness option;
  mutable degraded : int;  (* queries answered while sources were skipped *)
}

let create ?(config = default_config) dmap =
  {
    dmap;
    index = Index.empty;
    sources = [];
    ivds = [];
    sg = Signature.empty;
    cache = None;
    maint = None;
    last_maintenance = None;
    qcache = Hashtbl.create 64;
    cstats = empty_cache_stats;
    warnings = [];
    cfg = config;
    plugins = Cm_plugins.Defaults.registry ();
    channels = Hashtbl.create 8;
    runtime = Runtime.create ~policy:config.runtime ();
    last_completeness = None;
    degraded = 0;
  }

let invalidate t =
  let stale = Hashtbl.length t.qcache in
  Hashtbl.reset t.qcache;
  t.cstats <- { t.cstats with invalidated = t.cstats.invalidated + stale };
  t.cache <- None;
  t.maint <- None

(* Drop exactly the cached answers that read a predicate whose extent a
   maintenance pass changed. *)
let invalidate_touched t touched =
  let ts = SSet.of_list touched in
  let stale =
    Hashtbl.fold
      (fun k (e : cache_entry) acc ->
        if SSet.exists (fun p -> SSet.mem p ts) e.reads then k :: acc else acc)
      t.qcache []
  in
  List.iter (Hashtbl.remove t.qcache) stale;
  t.cstats <-
    { t.cstats with invalidated = t.cstats.invalidated + List.length stale }

let record_maintenance t (rep : Datalog.Maintain.report) =
  t.last_maintenance <- Some rep;
  t.cstats <- { t.cstats with maintained = t.cstats.maintained + 1 };
  invalidate_touched t rep.Datalog.Maintain.touched

let cache_stats t = t.cstats
let last_maintenance t = t.last_maintenance

let effective_durability t = Datalog.Store.resolve t.cfg.durability

(* Lift one declared store atom to a conceptual-level molecule, the
   namespacing step of Figure 3's "lifting". *)
let lift_atom ~source sg (a : Logic.Atom.t) =
  let d = Flogic.Compile.declared in
  match a.Logic.Atom.pred, a.Logic.Atom.args with
  | p, [ x; c ] when p = d Flogic.Compile.isa_p ->
    Option.map
      (fun c -> Molecule.Isa (x, Term.sym (Namespace.qualify ~source c)))
      (Term.as_string c)
  | p, [ x; m; v ] when p = d Flogic.Compile.meth_val_p ->
    Option.map (fun m -> Molecule.Meth_val (x, m, v)) (Term.as_string m)
  | rel, args -> (
    match Signature.attributes sg rel with
    | Some attrs when List.length attrs = List.length args ->
      Some
        (Molecule.Rel_val
           (Namespace.qualify ~source rel, List.combine attrs args))
    | _ -> None)

let source_facts src =
  let name = Source.name src in
  let store = Source.store src in
  let sg = Wrapper.Store.signature store in
  Datalog.Database.all_facts (Wrapper.Store.database store)
  |> List.filter_map (lift_atom ~source:name sg)

(* anchor rule: X : concept :- X : 'SRC.cls'. *)
let anchor_rule ~cm_class ~concept =
  Molecule.rule
    (Molecule.Isa (Term.var "X", Term.sym concept))
    [ Molecule.Pos (Molecule.Isa (Term.var "X", Term.sym cm_class)) ]

(* Absorb freshly added molecule rules into a live materialization by
   growing the maintenance handle; anything that prevents that (nothing
   materialized, an unstratified program, compile failure, lost
   stratification) degrades to a full invalidation. *)
let absorb_rules t mol_rules =
  match t.cache, t.maint with
  | Some _, Some h -> (
    match
      try Ok (Flogic.Compile.rules t.sg mol_rules)
      with Flogic.Compile.Compile_error _ -> Error ()
    with
    | Error () -> invalidate t
    | Ok dl_rules -> (
      match Datalog.Maintain.extend_rules h dl_rules with
      | Ok rep -> record_maintenance t rep
      | Error _ -> invalidate t))
  | _ -> invalidate t

let lift_class _t ~source cls = Namespace.qualify ~source cls

(* ------------------------------------------------------------------ *)
(* Fault channels: every query-time fetch from a registered source goes
   through a Wrapper.Fault channel under the Runtime retry/breaker
   policies. Reliable unless a plan is installed. *)

let channel t src =
  let name = Source.name src in
  match Hashtbl.find_opt t.channels name with
  | Some ch -> ch
  | None ->
    let ch = Wrapper.Fault.wrap src in
    Hashtbl.replace t.channels name ch;
    ch

let find_channel t name = Hashtbl.find_opt t.channels name

(* ------------------------------------------------------------------ *)
(* Durability: the engine half (checkpoint + WAL) goes through
   Datalog.Store; the federation half (breakers, channels, clocks,
   ledger) through Durable. *)

let federation_state t =
  let sources =
    List.map
      (fun src ->
        let name = Source.name src in
        let h = Runtime.health t.runtime name in
        let ch = channel t src in
        {
          Durable.name;
          state = h.Runtime.state;
          open_until = h.Runtime.open_until;
          consecutive = h.Runtime.consecutive;
          calls = h.Runtime.calls;
          failures = h.Runtime.failures;
          retries = h.Runtime.retries;
          trips = h.Runtime.trips;
          absorbed = h.Runtime.absorbed;
          quarantined = h.Runtime.quarantined;
          transitions = Runtime.transitions h;
          plan = Wrapper.Fault.plan ch;
          channel_calls = Wrapper.Fault.calls ch;
          channel_crashed = Wrapper.Fault.crashed ch;
          channel_stale = Wrapper.Fault.stale ch;
          channel_clock = Wrapper.Fault.clock ch;
          capabilities =
            List.map
              (Format.asprintf "%a" Wrapper.Capability.pp)
              (Wrapper.Fault.capabilities ch);
        })
      t.sources
  in
  {
    Durable.clock = Runtime.clock t.runtime;
    degraded = t.degraded;
    completeness =
      Option.map
        (fun c -> (c.contributed, c.skipped, c.suspect))
        t.last_completeness;
    sources;
  }

(* checkpoint the maintained materialization (compacting the WAL), then
   the federation state beside it *)
let write_checkpoint t (d : Datalog.Store.durability) h =
  let bytes =
    Datalog.Store.checkpoint d ~db:(Datalog.Maintain.db h)
      ~edb:(Datalog.Maintain.edb h) ()
  in
  Durable.save d.Datalog.Store.fs (federation_state t);
  bytes

(* Static checks applied at registration time, per the [lint] policy:
   the source's own schema conformance, anchors into the domain map,
   and query-template hygiene. Whole-federation analysis (IVD
   feasibility, stratification of the combined program) lives in
   {!Lint.federation} — it needs every source registered first. *)
let registration_diags t src =
  let module D = Analysis.Diagnostic in
  let name = Source.name src in
  let anchor_diags =
    List.filter_map
      (fun (cls, concept, _context) ->
        if Dmap.mem t.dmap concept then None
        else
          Some
            (D.make ~severity:D.Error ~pass:"domain-map"
               ~code:"unknown-anchor-concept" ~location:(D.Concept concept)
               (Printf.sprintf
                  "source %s anchors class %s at %s, which is not a concept \
                   of the domain map"
                  name cls concept)
               ~hint:
                 "the anchored data can never be selected; extend the domain \
                  map or fix the anchor"))
      (Source.anchors src)
  in
  Analysis.Schema_lint.lint
    ~known_class:(fun c -> Dmap.mem t.dmap c)
    (Source.schema src)
  @ anchor_diags
  @ Analysis.Cap_lint.lint_templates (Analysis.Cap_lint.of_source src)

let register_source t src =
  let name = Source.name src in
  if List.exists (fun s -> String.equal (Source.name s) name) t.sources then
    Error (Printf.sprintf "source %s is already registered" name)
  else
    match Gcm.Schema.validate (Source.schema src) with
    | Error e -> Error e
    | Ok () ->
      let module D = Analysis.Diagnostic in
      let diags =
        if t.cfg.lint = Lint_off then [] else registration_diags t src
      in
      let render d = Format.asprintf "%a" D.pp d in
      if t.cfg.lint = Lint_reject && D.errors diags <> [] then
        Error
          (Printf.sprintf "source %s rejected by lint:\n%s" name
             (String.concat "\n" (List.map render (D.errors diags))))
      else (
      t.warnings <-
        t.warnings
        @ List.map render
            (List.filter (fun (d : D.t) -> d.D.severity <> D.Info) diags);
      let ns_schema = Namespace.schema ~source:name (Source.schema src) in
      match
        try Ok (Signature.merge t.sg (Gcm.Schema.signature ns_schema))
        with Invalid_argument e -> Error e
      with
      | Error e -> Error e
      | Ok sg ->
        t.sg <- sg;
        t.sources <- t.sources @ [ src ];
        ignore (channel t src);
        (* data arriving at registration time is fresh by definition *)
        (match t.last_completeness with
        | Some c ->
          t.last_completeness <-
            Some { c with contributed = c.contributed @ [ name ] }
        | None -> ());
        List.iter
          (fun (cls, concept, context) ->
            t.index <-
              Index.add t.index ~source:name
                ~cm_class:(Namespace.qualify ~source:name cls)
                ~concept ~context ())
          (Source.anchors src);
        (* registration is a program delta: the source's schema rules,
           its anchor rules and its lifted data, absorbed incrementally
           when something is already materialized *)
        absorb_rules t
          (Gcm.Schema.to_rules ns_schema
          @ List.map
              (fun (cls, concept, _context) ->
                anchor_rule
                  ~cm_class:(Namespace.qualify ~source:name cls)
                  ~concept)
              (Source.anchors src)
          @ List.map Molecule.fact (source_facts src));
        Ok ())

let register_xml t ~format ?capabilities ~source_name doc =
  match Cm_plugins.Plugin.translate t.plugins ~format doc with
  | Error e -> Error e
  | Ok tr ->
    register_source t (Source.of_translation ~name:source_name ?capabilities tr)

let extend_dmap t axioms =
  match Domain_map.Register.register t.dmap axioms with
  | Error e -> Error e
  | Ok out ->
    t.dmap <- out.Domain_map.Register.dmap;
    t.warnings <- t.warnings @ out.Domain_map.Register.warnings;
    invalidate t;
    Ok ()

(* Provenance lint of freshly added views, per the [lint] policy: a
   federation IVD must not reference unknown namespaces, and a view no
   registered source can reach is worth a warning (pass 7). *)
let ivd_diags t rules =
  if t.cfg.lint = Lint_off then []
  else
    (Analysis.Prov_lint.analyze ~require_sources:true
       ~sources:(List.map Source.name t.sources)
       ~class_sources:(fun c ->
         if Dmap.mem t.dmap c then
           Index.sources_at t.dmap t.index ~concept:c
         else [])
       rules)
      .Analysis.Prov_lint.diags

let dmap t = t.dmap
let index t = t.index
let sources t = t.sources

let find_source t name =
  List.find_opt (fun s -> String.equal (Source.name s) name) t.sources

let config t = t.cfg

let set_config t cfg =
  if t.cfg <> cfg then begin
    t.cfg <- cfg;
    Runtime.set_policy t.runtime cfg.runtime;
    invalidate t
  end

let signature t = t.sg
let ivds t = t.ivds
let plugins t = t.plugins
let translation_warnings t = t.warnings

(* ------------------------------------------------------------------ *)
(* The mediated object base *)

let anchor_rules t =
  List.map
    (fun (a : Index.anchor) ->
      anchor_rule ~cm_class:a.Index.cm_class ~concept:a.Index.concept)
    (Index.anchors t.index)

let build_program_with t ~data =
  let dm_prog, warnings =
    Domain_map.To_program.program ~mode:t.cfg.dl_mode t.dmap
  in
  t.warnings <- t.warnings @ warnings;
  let schema_rules =
    List.concat_map
      (fun src ->
        Gcm.Schema.to_rules (Namespace.schema ~source:(Source.name src) (Source.schema src)))
      t.sources
  in
  let rules =
    schema_rules @ anchor_rules t
    @ List.map Molecule.fact data
    @ t.ivds
  in
  Flogic.Fl_program.merge dm_prog
    (Flogic.Fl_program.make ~inheritance:t.cfg.inheritance ~signature:t.sg rules)

(* the fault-free program: data read straight from the stores, no
   channels — what static analysis (Lint.federation) looks at *)
let build_program t =
  build_program_with t ~data:(List.concat_map source_facts t.sources)

let program t = build_program t

(* Trusted cardinality caps for the cost analysis ({!Analysis.Card}):
   store counts for qualified source relations (the registration
   metadata also surfaced by [Cap_lint.of_source]) and domain-map cone
   sizes for the closure predicates — tc_isa holds exactly one pair per
   (concept, cone member). *)
let cardinality_seed t =
  let module Card = Analysis.Card in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun src ->
      let store = Source.store src in
      let sname = Source.name src in
      List.iter
        (fun r ->
          Hashtbl.replace tbl
            (Namespace.qualify ~source:sname r)
            (Wrapper.Store.tuple_count store ~rel:r))
        (Wrapper.Store.relations store))
    t.sources;
  let concepts = Dmap.concepts t.dmap in
  let descendants = Domain_map.Closure.descendants t.dmap in
  let cone_pairs =
    List.fold_left
      (fun acc c -> acc + List.length (descendants c))
      0 concepts
  in
  let n = List.length concepts in
  Hashtbl.replace tbl "dm_isa" cone_pairs;
  Hashtbl.replace tbl "tc_isa" cone_pairs;
  Hashtbl.replace tbl "has_a_star" (n * n);
  fun p ->
    Option.map
      (fun hi -> { Card.lo = 0; hi = Some hi })
      (Hashtbl.find_opt tbl p)

(* Cost lint of candidate views, against the whole federation program:
   a view is costed in context (its body predicates' extents come from
   the sources and the closure), but only diagnostics on the candidate
   rules themselves are reported. Active only when [cost_budget] is
   configured — the budget also escalates over-budget estimates to
   reject-level errors. *)
let ivd_cost_diags t rules =
  match (t.cfg.lint, t.cfg.cost_budget) with
  | Lint_off, _ | _, None -> []
  | _, Some budget -> (
    let candidate = Flogic.Fl_program.add_rules (build_program t) rules in
    match Flogic.Fl_program.compile candidate with
    | Error _ -> [] (* surfaces as a compile error elsewhere *)
    | Ok dp ->
      let dl_rules = Datalog.Program.rules dp in
      let candidate_texts =
        try
          List.concat_map
            (Flogic.Compile.rule candidate.Flogic.Fl_program.signature)
            rules
          |> List.map Logic.Rule.to_string
          |> SSet.of_list
        with Flogic.Compile.Compile_error _ -> SSet.empty
      in
      Analysis.Cost_lint.lint ~budget
        ~assume_nonempty:
          (Analysis.Kindlint.open_predicate
             ~signature:candidate.Flogic.Fl_program.signature dl_rules)
        ~seed:(cardinality_seed t) dl_rules
      |> List.filter (fun (d : Analysis.Diagnostic.t) ->
             match d.Analysis.Diagnostic.location with
             | Analysis.Diagnostic.Rule { text; _ } ->
               SSet.mem text candidate_texts
             | _ -> false))

(* Pass 9 at the registration boundary: a candidate view whose every
   compiled rule is contained (modulo the domain map) in some
   already-installed view with the same head adds no answers. *)
let ivd_contain_diags t rules =
  if t.cfg.lint = Lint_off || t.ivds = [] || rules = [] then []
  else
    let module D = Analysis.Diagnostic in
    match
      try Ok (Flogic.Compile.rules t.sg rules, Flogic.Compile.rules t.sg t.ivds)
      with Flogic.Compile.Compile_error _ -> Error ()
    with
    | Error () -> [] (* surfaces as a compile error elsewhere *)
    | Ok (cand, against) ->
      let ctx = Analysis.Contain.make_ctx ~dm:t.dmap () in
      if cand <> [] && Analysis.Contain.redundant_view ctx ~against cand then
        [
          D.make ~severity:D.Warning ~pass:"contain" ~code:"redundant-ivd"
            ~location:D.Federation
            (Printf.sprintf
               "view (%d rule%s) is contained in the already-installed views \
                and adds no answers"
               (List.length rules)
               (if List.length rules = 1 then "" else "s"))
            ~hint:
              "every answer the view can produce is already derived; drop it \
               or generalize it";
        ]
      else []

let add_ivd t rules =
  let module D = Analysis.Diagnostic in
  (* A view that does not compile to safe Datalog would make every
     later materialization raise: refuse it before anything changes. *)
  match
    try Datalog.Program.make (Flogic.Compile.rules t.sg rules)
    with Flogic.Compile.Compile_error e -> Error e
  with
  | Error e -> Error ("view rejected: " ^ e)
  | Ok _ ->
    let diags =
      ivd_diags t rules @ ivd_cost_diags t rules @ ivd_contain_diags t rules
    in
    let errors = if t.cfg.lint = Lint_reject then D.errors diags else [] in
    if errors <> [] then
      Error
        (Printf.sprintf "view rejected by lint:\n%s"
           (String.concat "\n" (List.map (Format.asprintf "%a" D.pp) errors)))
    else begin
      t.warnings <-
        t.warnings
        @ List.map
            (Format.asprintf "%a" D.pp)
            (List.filter (fun (d : D.t) -> d.D.severity <> D.Info) diags);
      t.ivds <- t.ivds @ rules;
      absorb_rules t rules;
      Ok ()
    end

(* The view's rules are checked against the signature they were parsed
   with, which the mediator keeps only if the view is installed. *)
let add_ivd_text t src =
  match Flogic.Fl_parser.parse_program ~signature:t.sg src with
  | Error e -> Error e
  | Ok { Flogic.Fl_parser.rules; signature; _ } ->
    let sg0 = t.sg in
    t.sg <- signature;
    let r = add_ivd t rules in
    if Result.is_error r then t.sg <- sg0;
    r

(* ------------------------------------------------------------------ *)
(* Graceful degradation: pull each source's data through its fault
   channel; sources the runtime gives up on are skipped, and the
   materialization proceeds without them, tagged with a completeness
   report. *)

(* Prov_lint's provenance inference, turned on the skipped sources:
   a derived predicate is suspect when some skipped source can reach
   it — its extent may be missing answers. *)
let suspect_predicates t ~skipped =
  if skipped = [] then []
  else
    let skip = SSet.of_list (List.map fst skipped) in
    let result =
      Analysis.Prov_lint.analyze
        ~sources:(List.map Source.name t.sources)
        ~class_sources:(fun c ->
          if Dmap.mem t.dmap c then Index.sources_at t.dmap t.index ~concept:c
          else [])
        (anchor_rules t @ t.ivds)
    in
    List.filter_map
      (fun (p, srcs) ->
        if List.exists (fun s -> SSet.mem s skip) srcs then Some p else None)
      result.Analysis.Prov_lint.predicates
    |> List.sort_uniq String.compare

let gather_facts t =
  let outcomes =
    List.map
      (fun src -> (src, Runtime.fetch t.runtime (channel t src) source_facts))
      t.sources
  in
  let data, contributed, skipped =
    List.fold_left
      (fun (data, contributed, skipped) (src, r) ->
        match r with
        | Ok fs -> (fs :: data, Source.name src :: contributed, skipped)
        | Error reason ->
          (data, contributed, (Source.name src, reason) :: skipped))
      ([], [], []) outcomes
  in
  let skipped = List.rev skipped in
  ( List.concat (List.rev data),
    {
      contributed = List.rev contributed;
      skipped;
      suspect = suspect_predicates t ~skipped;
    } )

(* Dead-rule pruning hook for the engine (pass 6 acting, not just
   reporting): concept cones come from the domain map, and predicates
   the program itself does not define stay open so nothing reachable
   from a source is ever dropped. *)
let prune_hook t rules db =
  let cones =
    {
      Analysis.Absint.members = Domain_map.Closure.descendants t.dmap;
      lub = (fun cs -> Domain_map.Lub.lub_unique t.dmap cs);
    }
  in
  Analysis.Absint.prune ~cones
    ~assume_nonempty:(Analysis.Kindlint.open_predicate ~signature:t.sg rules)
    rules db

let materialize t =
  match t.cache with
  | Some db -> db
  | None ->
    let data, completeness = gather_facts t in
    t.last_completeness <- Some completeness;
    let p = build_program_with t ~data in
    let prune = if t.cfg.prune_dead then Some (prune_hook t) else None in
    let db =
      match Flogic.Fl_program.compile p with
      | Error e -> invalid_arg e
      | Ok dp -> (
        match
          Datalog.Maintain.init ?prune dp
            (Datalog.Database.create ())
        with
        | Ok h ->
          t.maint <- Some h;
          Datalog.Maintain.db h
        | Error _ ->
          (* unstratified (default inheritance, or domain-map axioms in
             assertion mode, entangle negation with recursion): the
             well-founded model of the program compiled above, certified
             from its stratified relaxation, no incremental handle *)
          t.maint <- None;
          Datalog.Engine.materialize
            ~config:{ Datalog.Engine.default_config with prune }
            dp
            (Datalog.Database.create ()))
    in
    t.cstats <- { t.cstats with rebuilt = t.cstats.rebuilt + 1 };
    t.cache <- Some db;
    (* auto-checkpoint a fresh maintained materialization; a
       well-founded model is not checkpointed (there is no maintenance
       handle to replay a WAL through) *)
    (match (effective_durability t, t.maint) with
    | Some d, Some h -> ignore (write_checkpoint t d h)
    | _ -> ());
    db

let query t lits =
  let db = materialize t in
  (match t.last_completeness with
  | Some { skipped = _ :: _; _ } -> t.degraded <- t.degraded + 1
  | _ -> ());
  let compiled = List.concat_map (Flogic.Compile.body_literals t.sg) lits in
  let key = String.concat " & " (List.map Logic.Literal.to_string compiled) in
  match Hashtbl.find_opt t.qcache key with
  | Some e ->
    t.cstats <- { t.cstats with hits = t.cstats.hits + 1 };
    e.answers
  | None ->
    let answers = Datalog.Engine.query db compiled in
    let reads =
      List.fold_left
        (fun acc l ->
          List.fold_left
            (fun acc (p, _) -> SSet.add p acc)
            acc (Logic.Literal.predicates l))
        SSet.empty compiled
    in
    t.cstats <- { t.cstats with misses = t.cstats.misses + 1 };
    Hashtbl.replace t.qcache key { answers; reads };
    answers

(* Figure 3's data-update arrow: a source pushes observations; the
   wrapper store is the ground truth (a later full rebuild re-reads it),
   and a live materialization absorbs the same change as a base delta. *)
let update_source t ~source ?(additions = []) ?(deletions = []) () =
  match find_source t source with
  | None ->
    Error (Printf.sprintf "Mediator.update_source: unknown source %s" source)
  | Some src -> (
    let store = Source.store src in
    let store_sg = Wrapper.Store.signature store in
    let lift ms =
      List.concat_map
        (fun m ->
          Flogic.Compile.head_atoms store_sg m
          |> List.filter_map (lift_atom ~source store_sg)
          |> List.concat_map (Flogic.Compile.head_atoms t.sg))
        ms
    in
    match
      try Ok (lift additions, lift deletions)
      with Flogic.Compile.Compile_error e -> Error e
    with
    | Error e -> Error e
    | Ok (added, removed) -> (
      List.iter (fun m -> ignore (Wrapper.Store.remove_fact store m)) deletions;
      List.iter (fun m -> Wrapper.Store.add_fact store m) additions;
      match t.cache, t.maint with
      | Some _, Some h -> (
        let durable = effective_durability t in
        match
          Datalog.Store.commit durable h
            (Datalog.Maintain.delta ~additions:added ~deletions:removed ())
        with
        | Ok c ->
          (* a rotation checkpointed the engine half; the federation
             half follows it, as after every checkpoint *)
          (match durable with
          | Some d when c.Datalog.Store.rotated ->
            Durable.save d.Datalog.Store.fs (federation_state t)
          | _ -> ());
          record_maintenance t c.Datalog.Store.report;
          Ok (Some c.Datalog.Store.report)
        | Error e ->
          invalidate t;
          Error e)
      | _ ->
        invalidate t;
        Ok None))

let query_text t src =
  match Flogic.Fl_parser.parse_query ~signature:t.sg src with
  | Error e -> Error e
  | Ok lits -> (
    try Ok (query t lits) with
    | Datalog.Engine.Undefined_atoms n ->
      Error
        (Printf.sprintf
           "the mediated base leaves %d atom%s undefined under the \
            well-founded semantics"
           n
           (if n = 1 then "" else "s"))
    | Datalog.Eval.Diverged e | Invalid_argument e -> Error e)

let holds t m = query t [ Molecule.Pos m ] <> []

let violations t = Flogic.Ic.violations (materialize t)
let consistent t = violations t = []

let select_sources t ~concepts =
  if t.cfg.use_semantic_index then
    Index.sources_for t.dmap t.index ~concepts
  else List.map Source.name t.sources

let select_sources_for_pairs t ~pairs =
  if t.cfg.use_semantic_index then
    Index.sources_for_pairs t.dmap t.index ~pairs
  else List.map Source.name t.sources

(* ------------------------------------------------------------------ *)
(* The fault-tolerance surface *)

let runtime t = t.runtime
let degraded_queries t = t.degraded

let set_fault_plan t ~source plan =
  match find_source t source with
  | None -> Error (Printf.sprintf "Mediator.set_fault_plan: unknown source %s" source)
  | Some src ->
    Hashtbl.replace t.channels source (Wrapper.Fault.wrap ~plan src);
    invalidate t;
    Ok ()

let fault_channel t source = find_channel t source

let capabilities_of t source =
  match find_source t source with
  | None -> []
  | Some src -> (
    match find_channel t source with
    | Some ch -> Wrapper.Fault.capabilities ch
    | None -> Source.capabilities src)

let fetch t ~source f =
  match find_source t source with
  | None -> Error (Printf.sprintf "Mediator.fetch: unknown source %s" source)
  | Some src -> Runtime.fetch t.runtime (channel t src) f

let completeness t =
  ignore (materialize t);
  match t.last_completeness with
  | Some c -> c
  | None ->
    (* unreachable after materialize, but keep it total *)
    { contributed = List.map Source.name t.sources; skipped = []; suspect = [] }

type report = { answers : Logic.Subst.t list; completeness : completeness }

let query_report t lits =
  let answers = query t lits in
  { answers; completeness = completeness t }

let health t =
  List.map
    (fun src ->
      let name = Source.name src in
      (name, Runtime.health t.runtime name))
    t.sources

(* Figure 3 again: a quarantined source comes back by re-registering.
   The schema and anchors are already installed, so revival re-opens a
   pristine channel, lifts the quarantine, and replays the source's
   current data into the live materialization as a registration delta. *)
let revive_source t source =
  match find_source t source with
  | None ->
    Error (Printf.sprintf "Mediator.revive_source: unknown source %s" source)
  | Some src ->
    Hashtbl.replace t.channels source (Wrapper.Fault.wrap src);
    Runtime.revive t.runtime source;
    let was_skipped =
      match t.last_completeness with
      | Some c -> List.mem_assoc source c.skipped
      | None -> false
    in
    if was_skipped then begin
      (* answers cached while this source was skipped may be missing
         its tuples even when absorbing its data leaves their read
         extents unchanged (e.g. another source already proved the same
         facts) — drop everything the revived source can reach, plus
         its own namespaced predicates *)
      let reachable = suspect_predicates t ~skipped:[ (source, "revived") ] in
      let prefix = source ^ "." in
      let is_stale (e : cache_entry) =
        SSet.exists
          (fun p ->
            List.mem p reachable
            || String.length p > String.length prefix
               && String.sub p 0 (String.length prefix) = prefix)
          e.reads
      in
      let stale =
        Hashtbl.fold
          (fun k e acc -> if is_stale e then k :: acc else acc)
          t.qcache []
      in
      List.iter (Hashtbl.remove t.qcache) stale;
      t.cstats <-
        {
          t.cstats with
          invalidated = t.cstats.invalidated + List.length stale;
        };
      (match t.cache with
      | Some _ -> absorb_rules t (List.map Molecule.fact (source_facts src))
      | None -> ());
      match t.last_completeness with
      | Some c ->
        let skipped = List.remove_assoc source c.skipped in
        t.last_completeness <-
          Some
            {
              contributed = c.contributed @ [ source ];
              skipped;
              suspect = suspect_predicates t ~skipped;
            }
      | None -> ()
    end;
    Ok ()

(* ------------------------------------------------------------------ *)
(* Durable checkpoint / recovery *)

let checkpoint t =
  match effective_durability t with
  | None ->
    Error
      "Mediator.checkpoint: no durability configured (set \
       config.durability or KIND_DURABLE_DIR)"
  | Some d -> (
    ignore (materialize t);
    match t.maint with
    | None ->
      Error
        "Mediator.checkpoint: the federation is unstratified (its \
         well-founded model has no maintenance handle to replay a log \
         through)"
    | Some h -> Ok (write_checkpoint t d h))

let restore_federation t (st : Durable.state) =
  Runtime.advance t.runtime (st.Durable.clock - Runtime.clock t.runtime);
  t.degraded <- st.Durable.degraded;
  t.last_completeness <-
    Option.map
      (fun (contributed, skipped, suspect) -> { contributed; skipped; suspect })
      st.Durable.completeness;
  List.iter
    (fun (s : Durable.source_state) ->
      match find_source t s.Durable.name with
      | None ->
        t.warnings <-
          t.warnings
          @ [
              Printf.sprintf
                "recover: federation state names source %s, which is not \
                 re-registered; its breaker state was dropped"
                s.Durable.name;
            ]
      | Some src ->
        let h = Runtime.health t.runtime s.Durable.name in
        h.Runtime.state <- s.Durable.state;
        h.Runtime.open_until <- s.Durable.open_until;
        h.Runtime.consecutive <- s.Durable.consecutive;
        h.Runtime.calls <- s.Durable.calls;
        h.Runtime.failures <- s.Durable.failures;
        h.Runtime.retries <- s.Durable.retries;
        h.Runtime.trips <- s.Durable.trips;
        h.Runtime.absorbed <- s.Durable.absorbed;
        h.Runtime.quarantined <- s.Durable.quarantined;
        h.Runtime.transitions <- List.rev s.Durable.transitions;
        Hashtbl.replace t.channels s.Durable.name
          (Wrapper.Fault.restore ~plan:s.Durable.plan
             ~calls:s.Durable.channel_calls ~crashed:s.Durable.channel_crashed
             ~stale:s.Durable.channel_stale ~clock:s.Durable.channel_clock src))
    st.Durable.sources

let recover t =
  match effective_durability t with
  | None ->
    Error
      "Mediator.recover: no durability configured (set config.durability \
       or KIND_DURABLE_DIR)"
  | Some d -> (
    (* the program is rebuilt from the re-registered federation
       topology; the checkpoint's base database carries the lifted
       source data, so no gather runs *)
    let adopt ~edb db =
      Result.bind
        (Flogic.Fl_program.compile (build_program_with t ~data:[]))
        (fun dp -> Datalog.Maintain.of_materialized ~edb dp db)
    in
    let handle =
      Result.bind (Datalog.Store.recover d ~adopt) (function
        | None -> Ok None
        | Some { Datalog.Store.replayed = Some (h, rep); _ } ->
          t.last_maintenance <- Some rep;
          Ok (Some h)
        | Some { Datalog.Store.db; edb; replayed = None; _ } ->
          Result.map Option.some (adopt ~edb db))
    in
    match handle with
    | Error e -> Error ("Mediator.recover: " ^ e)
    | Ok None -> Ok false
    | Ok (Some h) ->
      t.maint <- Some h;
      t.cache <- Some (Datalog.Maintain.db h);
      Hashtbl.reset t.qcache;
      (* the federation half: breakers resume where they were — an
         open breaker stays open and goes half-open when its cooldown
         lapses on the restored clock; recovery must NOT revive
         anything *)
      (match Durable.load d.Datalog.Store.fs with
      | Error e -> t.warnings <- t.warnings @ [ "recover: " ^ e ]
      | Ok None -> ()
      | Ok (Some st) -> restore_federation t st);
      Ok true)
