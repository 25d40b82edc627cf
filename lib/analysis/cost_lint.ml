module Rule = Logic.Rule
module D = Diagnostic

let pass = "cost"

let default_loc i r =
  D.Rule { index = i; text = Rule.to_string r; pos = None }

type report = {
  diags : D.t list;
  intervals : (string * Card.interval) list;
  costs : (Rule.t * Card.rule_cost) list;
}

let empty = { diags = []; intervals = []; costs = [] }

(* A non-recursive rule whose worst case dwarfs its inputs: the join is
   building a product, not following keys. The floor keeps tiny
   programs (where 3 x 4 x 5 is fine) quiet. *)
let blowup_factor = 4
let blowup_floor = 64

let rule_diags ~budget ~loc i r (c : Card.rule_cost) =
  let mk ?hint severity code msg =
    D.make ?hint ~severity ~pass ~code ~location:(loc i r) msg
  in
  (* Messages quote a bound saturated at [Card.huge] as unbounded; the
     blowup test still reads the raw bound, so a saturated product over
     finite inputs warns. *)
  let hi = Card.finite c.Card.est.Card.hi in
  let rows =
    match hi with Some h -> Printf.sprintf "%d rows" h | None -> "unbounded"
  in
  let cross =
    if c.Card.cross_products > 0 then
      [
        mk D.Warning "cross-product-join"
          (Printf.sprintf
             "%d join step%s share%s no bound variable with the literals \
              before %s (cross product); worst case %s"
             c.Card.cross_products
             (if c.Card.cross_products = 1 then "" else "s")
             (if c.Card.cross_products = 1 then "s" else "")
             (if c.Card.cross_products = 1 then "it" else "them")
             rows)
          ~hint:
            "add a join condition linking the scans, or split the rule — \
             every pair (triple, ...) of rows is materialized otherwise";
      ]
    else []
  in
  let growth =
    if c.Card.growing then
      [
        mk D.Warning "unbounded-growth"
          "recursive rule synthesises fresh values (function symbols, \
           arithmetic or aggregation on a dependency cycle): the head has \
           no finite bound"
          ~hint:
            "only the engine's max_term_depth guard terminates this; \
             bound the recursion with a base relation or drop the \
             constructor from the recursive case";
      ]
    else []
  in
  let blowup =
    match (c.Card.recursive, c.Card.est.Card.hi, c.Card.inputs_hi) with
    | false, Some est, Some inputs
      when est > max blowup_floor (blowup_factor * inputs) ->
      [
        mk D.Warning "super-linear-blowup"
          (Printf.sprintf
             "worst-case result (%s) is super-linear in the rule's \
              inputs (%d rows summed over body predicates)"
             rows inputs)
          ~hint:
            "the body joins multiply instead of filtering; check for \
             missing key joins or push a selection into the body";
      ]
    | _ -> []
  in
  let over =
    match (budget, hi) with
    | Some b, Some est when est > b ->
      [
        mk D.Error "over-budget"
          (Printf.sprintf
             "estimated result (%d rows) exceeds the configured budget \
              (%d)"
             est b);
      ]
    | Some b, None ->
      [
        mk D.Error "over-budget"
          (Printf.sprintf
             "estimated result is unbounded; a budget of %d is configured"
             b);
      ]
    | _ -> []
  in
  cross @ growth @ blowup @ over

let analyze ?budget ?assume_nonempty ?seed ?edb ?(loc = default_loc) rules =
  match Card.analyze ?edb ?assume_nonempty ?seed rules with
  | res ->
    let costs = Card.rule_costs res in
    let remaining = ref costs in
    let diags =
      List.concat
        (List.mapi
           (fun i r ->
             if Rule.is_fact r then []
             else
               match !remaining with
               | (r', c) :: rest when Rule.equal r r' ->
                 remaining := rest;
                 rule_diags ~budget ~loc i r c
               | _ -> [])
           rules)
    in
    { diags; intervals = Card.intervals res; costs }
  | exception Absint.Diverged -> empty

let lint ?budget ?assume_nonempty ?seed ?edb ?loc rules =
  (analyze ?budget ?assume_nonempty ?seed ?edb ?loc rules).diags
