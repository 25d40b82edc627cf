module Molecule = Flogic.Molecule
module Term = Logic.Term
module Literal = Logic.Literal
module D = Diagnostic
module SS = Set.Make (String)

(* The open-world boundary for the emptiness analysis: declared
   relations and caller-known predicates are populated externally;
   reserved GCM predicates are open only when nothing in the program
   defines them (a compiled program carries the axioms, which close
   [isa] and friends over the program's own facts). *)
let open_predicate ?signature ?(known_predicates = []) rules =
  let sg = Option.value signature ~default:Flogic.Signature.empty in
  let defined =
    List.fold_left
      (fun acc r -> SS.add (Logic.Rule.head_pred r) acc)
      SS.empty rules
  in
  fun p ->
    Flogic.Signature.mem sg p
    || List.mem p known_predicates
    || (List.mem p Rule_lint.reserved_predicates && not (SS.mem p defined))

let lint_datalog ?signature ?known_predicates ?cones ?edb ?budget ?seed ?dm
    ?(gcm = true) p =
  let rules = Datalog.Program.rules p in
  let assume_nonempty = open_predicate ?signature ?known_predicates rules in
  D.normalize
    (Rule_lint.lint ?signature ?known_predicates rules
    @ Strat_lint.lint p
    @ Type_lint.lint ?cones ~assume_nonempty ?edb rules
    @ Cost_lint.lint ?budget ~assume_nonempty ?seed ?edb rules
    @ Contain_lint.lint ?dm ~gcm rules
    @ Term_lint.lint ?dm ~gcm rules)

(* ------------------------------------------------------------------ *)
(* Molecule-level occurrence counting (multi-head aware) *)

let rec term_occs = function
  | Term.Var x -> [ x ]
  | Term.Const _ -> []
  | Term.App (_, ts) -> List.concat_map term_occs ts

let rec expr_occs = function
  | Literal.Leaf t -> term_occs t
  | Literal.Bin (_, e1, e2) -> expr_occs e1 @ expr_occs e2

let molecule_occs = function
  | Molecule.Isa (t1, t2)
  | Molecule.Sub (t1, t2)
  | Molecule.Meth_sig (t1, _, t2)
  | Molecule.Meth_val (t1, _, t2) -> term_occs t1 @ term_occs t2
  | Molecule.Rel_sig (_, avs) | Molecule.Rel_val (_, avs) ->
    List.concat_map (fun (_, t) -> term_occs t) avs
  | Molecule.Pred a -> List.concat_map term_occs a.Logic.Atom.args

let lit_occs = function
  | Molecule.Pos m | Molecule.Neg m -> molecule_occs m
  | Molecule.Cmp (_, t1, t2) -> term_occs t1 @ term_occs t2
  | Molecule.Assign (t, e) -> term_occs t @ expr_occs e
  | Molecule.Agg { target; group_by; result; body; _ } ->
    term_occs target
    @ List.concat_map term_occs group_by
    @ term_occs result
    @ List.concat_map molecule_occs body

let unused_diags loc i (r : Molecule.rule) =
  let occurrences =
    List.concat_map molecule_occs r.Molecule.heads
    @ List.concat_map lit_occs r.Molecule.body
  in
  let count x = List.length (List.filter (String.equal x) occurrences) in
  List.sort_uniq String.compare occurrences
  |> List.filter_map (fun x ->
         if String.length x > 0 && x.[0] = '_' then None
         else if count x = 1 then
           Some
             (D.make ~severity:D.Warning ~pass:"rules" ~code:"unused-variable"
                ~location:(loc i r)
                (Printf.sprintf "variable %s occurs only once" x)
                ~hint:
                  (Printf.sprintf
                     "it joins nothing and is never projected; rename it to \
                      _%s if intentional"
                     x))
         else None)

(* Classes and methods the program itself declares, for conformance. *)
let declared_universe rules =
  let classes = ref [] and methods = ref [] in
  let add_class c = if not (List.mem c !classes) then classes := c :: !classes in
  let const_class = function
    | Term.Const (Term.Sym c) -> add_class c
    | _ -> ()
  in
  List.iter
    (fun r ->
      List.iter
        (fun m ->
          match m with
          | Molecule.Isa (_, c) -> const_class c
          | Molecule.Sub (c1, c2) ->
            const_class c1;
            const_class c2
          | Molecule.Meth_sig (c, meth, range) ->
            const_class c;
            const_class range;
            if not (List.mem meth !methods) then methods := meth :: !methods
          | _ -> ())
        (Schema_lint.rule_molecules r))
    rules;
  (!classes, !methods)

let lint_program ?(known_class = fun _ -> false)
    ?(known_method = fun _ -> false) ?known_predicates ?(positions = []) ?cones
    ?(sources = []) ?class_sources ?budget ?seed ?dm
    (p : Flogic.Fl_program.t) =
  let mol_pos i = List.nth_opt positions i in
  let mol_loc i r =
    D.Rule { index = i; text = Molecule.rule_to_string r; pos = mol_pos i }
  in
  let classes, methods = declared_universe p.Flogic.Fl_program.rules in
  let schema_diags =
    Schema_lint.lint_rules ~signature:p.Flogic.Fl_program.signature
      ~known_class:(fun c -> List.mem c classes || known_class c)
      ~known_method:(fun m -> List.mem m methods || known_method m)
      ~loc:mol_loc p.Flogic.Fl_program.rules
  in
  let unused =
    List.concat
      (List.mapi (fun i r -> unused_diags mol_loc i r) p.Flogic.Fl_program.rules)
  in
  let prov_diags =
    (Prov_lint.analyze ~sources ?class_sources ~loc:mol_loc
       p.Flogic.Fl_program.rules)
      .Prov_lint.diags
  in
  let compiled =
    try
      Ok
        (List.map
           (Flogic.Compile.rule p.Flogic.Fl_program.signature)
           p.Flogic.Fl_program.rules)
    with Flogic.Compile.Compile_error e -> Error e
  in
  match compiled with
  | Error e ->
    D.normalize
      (schema_diags @ unused @ prov_diags
      @ [
          D.make ~severity:D.Error ~pass:"rules" ~code:"compile-error"
            ~location:D.Federation e;
        ])
  | Ok per_molecule ->
    let dl_rules = List.concat per_molecule in
    (* each compiled rule inherits the source position of the molecule
       it came from; rendered text is the join key because both the
       stratifier and the type pass re-index rules *)
    let pos_of_rule = Hashtbl.create 16 in
    List.iteri
      (fun i rs ->
        match mol_pos i with
        | Some p ->
          List.iter
            (fun r -> Hashtbl.replace pos_of_rule (Logic.Rule.to_string r) p)
            rs
        | None -> ())
      per_molecule;
    let dl_loc i r =
      let text = Logic.Rule.to_string r in
      D.Rule { index = i; text; pos = Hashtbl.find_opt pos_of_rule text }
    in
    let rule_diags =
      Rule_lint.lint ~signature:p.Flogic.Fl_program.signature ?known_predicates
        ~check_unused:false ~loc:dl_loc dl_rules
    in
    let has_errors =
      List.exists (fun (d : D.t) -> d.D.severity = D.Error) rule_diags
    in
    (* The emptiness analysis wants the axioms in scope (they close
       [isa] and friends over the program's own facts), but only the
       user's rules are worth flagging — a program that never declares
       relations would otherwise light up the unused axioms. *)
    let user_rules =
      List.fold_left
        (fun acc r -> SS.add (Logic.Rule.to_string r) acc)
        SS.empty dl_rules
    in
    let only_user ds =
      List.filter
        (fun (d : D.t) ->
          match d.D.location with
          | D.Rule { text; _ } -> SS.mem text user_rules
          | _ -> true)
        ds
    in
    let type_diags dp =
      let rules = Datalog.Program.rules dp in
      only_user
        (Type_lint.lint ?cones
           ~assume_nonempty:
             (open_predicate ~signature:p.Flogic.Fl_program.signature
                ?known_predicates rules)
           ~loc:dl_loc rules)
    in
    (* pass 8 — cardinality/cost hazards, same scoping as the type pass:
       the axioms participate in the analysis but only user rules are
       flagged *)
    let cost_diags dp =
      let rules = Datalog.Program.rules dp in
      only_user
        (Cost_lint.lint ?budget
           ~assume_nonempty:
             (open_predicate ~signature:p.Flogic.Fl_program.signature
                ?known_predicates rules)
           ?seed ~loc:dl_loc rules)
    in
    (* passes 9 and 10 — semantic containment and skolem-safety; the
       axioms stay in scope (the chase and the position graph model
       them) but only user rules are flagged *)
    let contain_diags dp =
      let rules = Datalog.Program.rules dp in
      only_user
        (Contain_lint.lint ?dm ~loc:dl_loc rules
        @ Term_lint.lint ?dm ~loc:dl_loc rules)
    in
    let deep_diags =
      if has_errors then
        (* the full program will not compile; still report cycles and
           emptiness over the rules that are individually fine, with the
           axioms in scope *)
        let safe =
          Flogic.Gcm_axioms.core
          @ (if p.Flogic.Fl_program.inheritance then
               Flogic.Gcm_axioms.nonmonotonic_inheritance
             else [])
          @ List.filter (fun r -> Logic.Rule.safety_errors r = []) dl_rules
        in
        match Datalog.Program.make safe with
        | Ok p ->
          Strat_lint.lint ~loc:dl_loc p
          @ type_diags p @ cost_diags p @ contain_diags p
        | Error _ -> []
      else
        match Flogic.Fl_program.compile p with
        | Ok dp ->
          Strat_lint.lint ~loc:dl_loc dp
          @ type_diags dp @ cost_diags dp @ contain_diags dp
        | Error e ->
          [
            D.make ~severity:D.Error ~pass:"rules" ~code:"compile-error"
              ~location:D.Federation e;
          ]
    in
    D.normalize (schema_diags @ unused @ prov_diags @ rule_diags @ deep_diags)
