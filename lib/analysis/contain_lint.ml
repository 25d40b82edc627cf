(* Lint pass 9, "contain": semantic redundancy via CQ containment
   modulo the domain map.

   - [unsatisfiable-body]: the rule can never fire (ground-false or
     contradictory comparisons, a negated atom implied by the positive
     body, disjoint-concept membership).
   - [implied-atom]: a body atom is entailed by the rest of the body
     under the chase — the join is pure overhead ([Contain.minimize_rule]
     drops it; the engine evaluates the rule as written).
   - [rule-implied-by-rule]: every answer of one rule is produced by
     another rule of the program; the contained rule is dead weight.
     Syntactic duplicates (including alpha-variants) are left to
     {!Rule_lint}'s [duplicate-rule] so the two passes never report
     the same pair twice.

   Under [gcm] the {!Flogic.Gcm_axioms} rules and any rule whose head
   writes a closed reserved predicate are skipped: the chase encodes
   those axioms, so they would trivially "imply" each other. *)

module Rule = Logic.Rule
module D = Diagnostic

let pass = "contain"

let default_loc i r = D.Rule { index = i; text = Rule.to_string r; pos = None }

let closed_preds =
  [
    Flogic.Compile.isa_p;
    Flogic.Compile.sub_p;
    Flogic.Compile.meth_sig_p;
    Flogic.Compile.meth_val_p;
    Flogic.Compile.class_p;
  ]

let is_axiom r =
  List.exists (Rule.equal r)
    (Flogic.Gcm_axioms.core @ Flogic.Gcm_axioms.nonmonotonic_inheritance)

(* pairwise-containment budgets: [contained] is a join under the hood,
   so bound both the per-head-predicate group size and the total number
   of pairs checked per program *)
let group_cap = 24
let pair_budget = 512

let lint ?dm ?(disjoint = []) ?(gcm = true) ?(loc = default_loc) rules =
  let ctx = Contain.make_ctx ?dm ~rules ~disjoint ~gcm () in
  let skip r =
    Rule.is_fact r
    || (gcm && (is_axiom r || List.mem (Rule.head_pred r) closed_preds))
  in
  let unsat_results =
    List.mapi
      (fun i r ->
        (i, r, if skip r then None else Contain.unsatisfiable ctx r))
      rules
  in
  let unsat =
    List.filter_map
      (fun (i, r, res) ->
        Option.map
          (fun reason ->
            D.make ~severity:D.Warning ~pass ~code:"unsatisfiable-body"
              ~location:(loc i r)
              (Printf.sprintf "rule can never fire: %s" reason)
              ~hint:
                "the body is contradictory in every model of the program \
                 and domain map; delete the rule or fix the conflicting \
                 literals")
          res)
      unsat_results
  in
  let unsat_idx =
    List.filter_map
      (fun (i, _, res) -> if res = None then None else Some i)
      unsat_results
  in
  let implied =
    List.concat
      (List.mapi
         (fun i r ->
           if skip r || List.mem i unsat_idx then []
           else
             match Contain.implied_atoms ctx r with
             | [] -> []
             | atoms ->
               [
                 D.make ~severity:D.Warning ~pass ~code:"implied-atom"
                   ~location:(loc i r)
                   (Printf.sprintf
                      "body atom%s %s %s implied by the rest of the body \
                       (modulo the domain map): the join adds no \
                       selectivity"
                      (if List.length atoms = 1 then "" else "s")
                      (String.concat ", "
                         (List.map Logic.Atom.to_string atoms))
                      (if List.length atoms = 1 then "is" else "are each"))
                   ~hint:
                     "drop the atom: the engine evaluates the rule as \
                      written";
               ])
         rules)
  in
  (* rule-implied-by-rule, grouped by head predicate *)
  let indexed =
    List.mapi (fun i r -> (i, r)) rules
    |> List.filter (fun (_, r) -> not (skip r))
  in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (i, r) ->
      let k = Rule.head_pred r in
      Hashtbl.replace groups k
        ((i, r) :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
    indexed;
  let checked = ref 0 in
  let subsumed =
    Hashtbl.fold
      (fun _ group acc ->
        let group = List.rev group in
        if List.length group > group_cap then acc
        else
          List.concat_map
            (fun (j, rj) ->
              let witness =
                List.find_opt
                  (fun (i, ri) ->
                    i <> j && !checked < pair_budget
                    &&
                    (incr checked;
                     (* leave exact duplicates and alpha-variants to
                        Rule_lint's duplicate-rule *)
                     (not (Rule.equal ri rj))
                     && (not
                           (Rule.equal
                              (Rule_lint.alpha_canonical ri)
                              (Rule_lint.alpha_canonical rj)))
                     && Contain.contained ctx rj ri
                     && (i < j || not (Contain.contained ctx ri rj))))
                  group
              in
              match witness with
              | Some (i, ri) ->
                [
                  D.make ~severity:D.Warning ~pass ~code:"rule-implied-by-rule"
                    ~location:(loc j rj)
                    (Printf.sprintf
                       "every answer of this rule is already produced by \
                        rule #%d `%s` (containment modulo the domain map)"
                       i (Rule.to_string ri))
                    ~hint:
                      "the rule is semantically redundant; delete it or \
                       make it more specific";
                ]
              | None -> [])
            group
          @ acc)
      groups []
  in
  unsat @ implied @ subsumed
