module Term = Logic.Term
module Literal = Logic.Literal
module Molecule = Flogic.Molecule
module Capability = Wrapper.Capability
module Source = Wrapper.Source
module Store = Wrapper.Store
module D = Diagnostic

let pass = "capability"

type source_info = {
  name : string;
  capabilities : Capability.t list;
  relations : (string * string list) list;
  classes : string list;
  relation_counts : (string * int) list;
  class_counts : (string * int) list;
}

let of_source src =
  let store = Source.store src in
  let sg = Store.signature store in
  {
    name = Source.name src;
    capabilities = Source.capabilities src;
    relations =
      List.map
        (fun r ->
          (r, Option.value (Flogic.Signature.attributes sg r) ~default:[]))
        (Flogic.Signature.relations sg);
    classes = Gcm.Schema.class_names (Source.schema src);
    (* registration metadata for the cardinality analysis: how many
       tuples/objects the store holds right now — trusted caps for the
       corresponding open predicates *)
    relation_counts =
      List.map (fun r -> (r, Store.tuple_count store ~rel:r)) (Store.relations store);
    class_counts =
      List.map (fun c -> (c, Store.object_count store ~cls:c)) (Store.classes store);
  }

(* mirror of Mediation.Namespace.split: 'SRC.name' *)
let split_qualified name =
  match String.index_opt name '.' with
  | Some i ->
    Some
      ( String.sub name 0 i,
        String.sub name (i + 1) (String.length name - i - 1) )
  | None -> None

let dm_predicates = [ "dm_isa"; "tc_isa"; "has_a_star" ]

(* ------------------------------------------------------------------ *)
(* The feasibility fixpoint *)

module SS = Set.Make (String)

type group = {
  gvar : string;
  cls : string;
  targets : (string * string) list;
  mutable methods : (string * Term.t) list;
}

type rel_access = {
  rsource : source_info;
  rel : string;
  fields : (string * Term.t) list;
  text : string;
}

let term_bound bound t =
  List.for_all (fun x -> SS.mem x bound) (Term.vars t)

let bind_term bound t =
  List.fold_left (fun acc x -> SS.add x acc) bound (Term.vars t)

let admits_access info ~rel ~attrs ~bound_attrs =
  let flags = List.map (fun a -> List.mem a bound_attrs) attrs in
  Capability.admits_pattern info.capabilities ~rel ~bound:flags

type stats = { source_subgoals : int; infeasible_subgoals : int }

let feasibility_stats ~sources ~class_targets ?label lits =
  let src_subgoals = ref 0 and infeasible = ref 0 in
  let query_text =
    match label with
    | Some l -> l
    | None ->
      String.concat ", "
        (List.map (fun l -> Format.asprintf "%a" Molecule.pp_lit l) lits)
  in
  let loc = D.Query query_text in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let groups : group list ref = ref [] in
  let rels : rel_access list ref = ref [] in
  let comparisons = ref [] in
  let dm_tests = ref [] in
  let find_group x = List.find_opt (fun g -> String.equal g.gvar x) !groups in
  let find_source s = List.find_opt (fun i -> String.equal i.name s) sources in
  let out_of_fragment l =
    emit
      (D.make ~severity:D.Info ~pass ~code:"unplannable-literal" ~location:loc
         (Format.asprintf
            "literal %a is outside the conjunctive planner's fragment"
            Molecule.pp_lit l)
         ~hint:
           "it answers only on the mediated object base (Mediator.query), \
            not through Conjunctive.run")
  in
  List.iter
    (fun lit ->
      match lit with
      | Molecule.Pos (Molecule.Isa (Term.Var x, Term.Const (Term.Sym c))) ->
        if find_group x <> None then
          emit
            (D.make ~severity:D.Error ~pass ~code:"ungrouped-method"
               ~location:loc
               (Printf.sprintf "variable %s has two class constraints" x))
        else begin
          incr src_subgoals;
          let targets = class_targets c in
          if targets = [] then begin
            incr infeasible;
            emit
              (D.make ~severity:D.Warning ~pass ~code:"no-covering-source"
                 ~location:loc
                 (Printf.sprintf
                    "no registered source covers %s; the subgoal %s : %s is \
                     vacuously empty"
                    c x c)
                 ~hint:
                   "register a source anchored at the concept, or fix the \
                    class name")
          end;
          groups := { gvar = x; cls = c; targets; methods = [] } :: !groups
        end
      | Molecule.Pos (Molecule.Meth_val (Term.Var x, m, t)) -> (
        match find_group x with
        | Some g -> g.methods <- g.methods @ [ (m, t) ]
        | None ->
          emit
            (D.make ~severity:D.Error ~pass ~code:"ungrouped-method"
               ~location:loc
               (Printf.sprintf
                  "method access %s[%s ->> _] has no preceding class \
                   constraint for %s"
                  x m x)
               ~hint:
                 (Printf.sprintf
                    "add `%s : some_class` before the method access" x)))
      | Molecule.Pos (Molecule.Rel_val (qrel, fields)) -> (
        match split_qualified qrel with
        | None ->
          out_of_fragment lit
        | Some (src_name, rel) -> (
          incr src_subgoals;
          match find_source src_name with
          | None ->
            incr infeasible;
            emit
              (D.make ~severity:D.Error ~pass ~code:"unknown-source"
                 ~location:loc
                 (Printf.sprintf
                    "relation access %s names a source that is not \
                     registered"
                    qrel))
          | Some info -> (
            let text = Format.asprintf "%a" Molecule.pp (Molecule.Rel_val (qrel, fields)) in
            match List.assoc_opt rel info.relations with
            | None ->
              incr infeasible;
              emit
                (D.make ~severity:D.Error ~pass ~code:"unknown-relation"
                   ~location:loc
                   (Printf.sprintf "source %s has no relation %s" src_name rel))
            | Some attrs ->
              List.iter
                (fun (a, _) ->
                  if not (List.mem a attrs) then
                    emit
                      (D.make ~severity:D.Error ~pass ~code:"unknown-attribute"
                         ~location:loc
                         (Printf.sprintf
                            "relation %s.%s has no attribute %s (layout: %s)"
                            src_name rel a (String.concat ", " attrs))))
                fields;
              rels := { rsource = info; rel; fields; text } :: !rels)))
      | Molecule.Cmp (op, t1, t2) -> comparisons := (op, t1, t2) :: !comparisons
      | Molecule.Pos (Molecule.Pred a)
        when List.mem a.Logic.Atom.pred dm_predicates ->
        dm_tests := a :: !dm_tests
      | l -> out_of_fragment l)
    lits;
  let groups = List.rev !groups and rels = List.rev !rels in
  let comparisons = List.rev !comparisons and dm_tests = List.rev !dm_tests in
  (* greedy fixpoint: executability is monotone in the bound set, so if
     this stalls no literal ordering exists *)
  let bound = ref SS.empty in
  let pending_groups = ref groups and pending_rels = ref rels in
  let pending_cmps = ref comparisons in
  (* domain-map tests bind both sides by enumeration *)
  List.iter
    (fun (a : Logic.Atom.t) ->
      List.iter
        (fun t -> bound := bind_term !bound t)
        a.Logic.Atom.args)
    dm_tests;
  let progress = ref true in
  while !progress do
    progress := false;
    pending_groups :=
      List.filter
        (fun g ->
          (* a group with a scannable target always executes (the
             planner degrades refused selections to scan-and-filter) *)
          let scannable =
            List.exists
              (fun (src_name, cls) ->
                match find_source src_name with
                | Some info -> Capability.can_scan_class info.capabilities cls
                | None -> false)
              g.targets
          in
          if g.targets = [] then false (* already reported: vacuous *)
          else if scannable then begin
            bound := SS.add g.gvar !bound;
            List.iter (fun (_, t) -> bound := bind_term !bound t) g.methods;
            progress := true;
            false
          end
          else begin
            incr infeasible;
            emit
              (D.make ~severity:D.Error ~pass ~code:"unscannable-class"
                 ~location:loc
                 (Printf.sprintf
                    "no covering source of %s : %s allows scanning its class \
                     (%s)"
                    g.gvar g.cls
                    (String.concat ", "
                       (List.map (fun (s, c) -> s ^ "." ^ c) g.targets)))
                 ~hint:
                   "declare Scan_class or Select_class for it; the planner \
                    silently returns no objects otherwise");
            false
          end)
        !pending_groups;
    pending_rels :=
      List.filter
        (fun r ->
          let attrs =
            match List.assoc_opt r.rel r.rsource.relations with
            | Some attrs -> attrs
            | None -> []
          in
          let bound_attrs =
            List.filter_map
              (fun (a, t) -> if term_bound !bound t then Some a else None)
              r.fields
          in
          if admits_access r.rsource ~rel:r.rel ~attrs ~bound_attrs then begin
            List.iter (fun (_, t) -> bound := bind_term !bound t) r.fields;
            progress := true;
            false
          end
          else true)
        !pending_rels;
    pending_cmps :=
      List.filter
        (fun (op, t1, t2) ->
          match op with
          | Literal.Eq when term_bound !bound t1 || term_bound !bound t2 ->
            bound := bind_term (bind_term !bound t1) t2;
            progress := true;
            false
          | Literal.Eq -> true
          | _ ->
            if term_bound !bound t1 && term_bound !bound t2 then begin
              (* pure test; executable once both sides are bound *)
              false
            end
            else true)
        !pending_cmps
  done;
  (* whatever is left admits no executable ordering *)
  List.iter
    (fun r ->
      incr infeasible;
      let attrs =
        match List.assoc_opt r.rel r.rsource.relations with
        | Some attrs -> attrs
        | None -> []
      in
      let free =
        List.filter_map
          (fun (a, t) -> if term_bound !bound t then None else Some a)
          r.fields
      in
      emit
        (D.make ~severity:D.Error ~pass ~code:"infeasible-access" ~location:loc
           (Printf.sprintf
              "no ordering of the query can execute %s: source %s declares \
               no capability admitting attribute(s) %s free, and nothing \
               else binds %s"
              r.text r.rsource.name
              (String.concat ", " free)
              (String.concat ", " free))
           ~hint:
             (Printf.sprintf
                "bind %s earlier in the query, or declare Scan_relation %s / \
                 a matching Bind_relation pattern (layout: %s)"
                (String.concat ", " free)
                r.rel
                (String.concat ", " attrs))))
    !pending_rels;
  List.iter
    (fun (op, t1, t2) ->
      emit
        (D.make ~severity:D.Warning ~pass ~code:"infeasible-comparison"
           ~location:loc
           (Format.asprintf
              "comparison %a %a %a can never evaluate: %s"
              Term.pp t1 Literal.pp_cmp op Term.pp t2
              (let free =
                 List.filter (fun x -> not (SS.mem x !bound))
                   (Term.vars t1 @ Term.vars t2)
               in
               "nothing binds " ^ String.concat ", " free))
           ~hint:"the planner silently drops all answers on unevaluable \
                  comparisons"))
    !pending_cmps;
  ( List.rev !diags,
    { source_subgoals = !src_subgoals; infeasible_subgoals = !infeasible } )

let feasibility ~sources ~class_targets ?label lits =
  fst (feasibility_stats ~sources ~class_targets ?label lits)

(* ------------------------------------------------------------------ *)
(* Template hygiene *)

let lint_templates info =
  List.concat_map
    (fun cap ->
      match cap with
      | Capability.Template { name; params; body } ->
        let used = Capability.placeholders body in
        let loc = D.Source info.name in
        List.filter_map
          (fun p ->
            if List.mem p used then None
            else
              Some
                (D.make ~severity:D.Warning ~pass ~code:"unused-template-param"
                   ~location:loc
                   (Printf.sprintf "template %s declares $%s but never uses it"
                      name p)))
          params
        @ List.filter_map
            (fun u ->
              if List.mem u params then None
              else
                Some
                  (D.make ~severity:D.Warning ~pass
                     ~code:"unknown-template-param" ~location:loc
                     (Printf.sprintf
                        "template %s interpolates $%s, which is not a \
                         declared parameter"
                        name u)
                     ~hint:"the placeholder survives into the query text \
                            and will fail to parse"))
            used
      | _ -> [])
    info.capabilities
