module Term = Logic.Term
module Atom = Logic.Atom
module Literal = Logic.Literal
module Rule = Logic.Rule

type view = { vname : string; definition : Rule.t }

let view ~name (r : Rule.t) =
  let error fmt = Printf.ksprintf (fun m -> Error ("Lav.view: " ^ m)) fmt in
  let has_function (a : Atom.t) =
    List.exists (function Term.App _ -> true | _ -> false) a.Atom.args
  in
  let refusal = function
    | Literal.Pos a when not (Literal.is_builtin a.Atom.pred) ->
      if has_function a then Some "has a function symbol" else None
    | _ -> Some "is not a conjunctive-query atom"
  in
  let body_vars = List.concat_map Literal.vars r.Rule.body in
  match
    List.find_map
      (fun l -> Option.map (fun why -> (l, why)) (refusal l))
      r.Rule.body
  with
  | Some (l, why) -> error "%s %s" (Literal.to_string l) why
  | None when has_function r.Rule.head ->
    error "the head %s has a function symbol" (Atom.to_string r.Rule.head)
  | None -> (
    match
      List.find_opt (fun x -> not (List.mem x body_vars)) (Atom.vars r.Rule.head)
    with
    | Some x -> error "head variable %s is not in the body" x
    | None -> Ok { vname = name; definition = r })

let invert v =
  let q = v.definition in
  let head_vars = Atom.vars q.Rule.head in
  let head_args = List.map Term.var head_vars in
  let view_atom = Atom.make v.vname q.Rule.head.Atom.args in
  (* existential variables (in the body but not the head) are
     skolemised over the head variables *)
  let skolemise t =
    match t with
    | Term.Var x when not (List.mem x head_vars) ->
      Term.app (Printf.sprintf "f_%s_%s" v.vname x) head_args
    | t -> t
  in
  List.filter_map
    (function
      | Literal.Pos (body_atom : Atom.t) ->
        Some
          (Rule.make
             (Atom.make body_atom.Atom.pred
                (List.map skolemise body_atom.Atom.args))
             [ Literal.Pos view_atom ])
      | _ -> None)
    q.Rule.body

let answer ~views ~extensions goal =
  let rules = List.concat_map invert views in
  let p = Datalog.Program.make_exn rules in
  let db = Datalog.Engine.materialize p extensions in
  Datalog.Engine.answers db goal
  |> List.filter (fun tuple ->
         (* certain answers are the skolem-free ones *)
         List.for_all
           (fun t -> match t with Term.App _ -> false | _ -> true)
           tuple)

let inversion_obstacle (r : Flogic.Molecule.rule) =
  let rec check_lits = function
    | [] -> None
    | Flogic.Molecule.Neg _ :: _ -> Some "negation in the view body"
    | Flogic.Molecule.Agg _ :: _ ->
      Some "aggregation in the view body (Example 4's aggregate)"
    | Flogic.Molecule.Assign _ :: _ -> Some "arithmetic in the view body"
    | Flogic.Molecule.Cmp _ :: rest -> check_lits rest
    | Flogic.Molecule.Pos m :: rest -> (
      match m with
      | Flogic.Molecule.Pred a
        when List.mem a.Atom.pred
               [ "tc_isa"; "dc_role"; "has_a_star" ] ->
        Some
          (Printf.sprintf
             "recursion: %s is a recursively defined domain-map relation"
             a.Atom.pred)
      | _ -> check_lits rest)
  in
  match check_lits r.Flogic.Molecule.body with
  | Some obstacle -> Some obstacle
  | None ->
    (* multi-head rules (object molecules) also fall outside plain CQ
       views *)
    if List.length r.Flogic.Molecule.heads > 1 then
      Some "object-molecule head (asserts several atoms at once)"
    else None
