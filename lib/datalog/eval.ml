module Term = Logic.Term
module Atom = Logic.Atom
module Literal = Logic.Literal
module Subst = Logic.Subst
module Unify = Logic.Unify
module Rule = Logic.Rule

type stats = {
  mutable joins : int;
  mutable tuples_scanned : int;
  mutable index_hits : int;
  mutable plan_cache_hits : int;
  mutable order_time : float;
}

exception Diverged of string

let new_stats () =
  {
    joins = 0;
    tuples_scanned = 0;
    index_hits = 0;
    plan_cache_hits = 0;
    order_time = 0.0;
  }

let no_stats = new_stats ()

module SS = Set.Make (String)

(* Extend one substitution against a positive atom read from [rel]. *)
let extend_pos stats rel s (a : Atom.t) =
  let pattern = List.map (Subst.apply s) a.Atom.args in
  let candidates = Relation.select rel ~pattern in
  stats.joins <- stats.joins + 1;
  if List.exists Term.is_ground pattern then
    stats.index_hits <- stats.index_hits + 1;
  stats.tuples_scanned <- stats.tuples_scanned + List.length candidates;
  List.filter_map
    (fun tup -> Unify.matches_list ~init:s ~patterns:pattern tup)
    candidates

let rel_of db pred =
  match Database.relation_opt db pred with
  | Some r -> r
  | None -> Relation.create ()

(* Structural builtins (see Literal's documentation). Arguments are
   ground by the time the greedy order reaches the literal. *)
let eval_builtin (a : Atom.t) =
  let prefix_of f p =
    String.length p <= String.length f && String.sub f 0 (String.length p) = p
  in
  match a.Atom.pred, a.Atom.args with
  | "builtin:is_app", [ t ] -> (match t with Term.App _ -> true | _ -> false)
  | "builtin:is_const", [ t ] -> (
    match t with Term.Const _ -> true | _ -> false)
  | "builtin:functor_prefix", [ t; p ] -> (
    match t, Term.as_string p with
    | Term.App (f, _), Some prefix -> prefix_of f prefix
    | _ -> false)
  | "builtin:not_functor_prefix", [ t; p ] -> (
    match t, Term.as_string p with
    | Term.App (f, _), Some prefix -> not (prefix_of f prefix)
    | Term.App _, None -> false
    | _ -> true)
  | p, _ -> invalid_arg ("Eval: unknown builtin predicate " ^ p)

(* Aggregate evaluation: solve the inner conjunction against [neg]
   under the outer substitution, group the distinct (group_by, target)
   pairs by group key, fold the aggregate function, and emit one
   extension per group. *)
let eval_agg stats ~neg s (ag : Literal.agg) =
  let inner = List.map (Atom.apply s) ag.Literal.body in
  let inner_lits = List.map (fun a -> Literal.Pos a) inner in
  (* Inner solve: positive only, against neg database. *)
  let rec solve lits ss =
    match lits with
    | [] -> ss
    | Literal.Pos a :: rest ->
      let ss' =
        List.concat_map
          (fun s -> extend_pos stats (rel_of neg a.Atom.pred) s a)
          ss
      in
      if ss' = [] then [] else solve rest ss'
    | _ :: _ -> assert false
  in
  let solutions = solve inner_lits [ Subst.empty ] in
  let module TM = Map.Make (struct
    type t = Term.t list

    let compare = Term.compare_list
  end) in
  (* Distinct (key, target) pairs per group; set semantics. *)
  let groups =
    List.fold_left
      (fun m tau ->
        let key = List.map (fun t -> Subst.apply tau (Subst.apply s t)) ag.group_by in
        let v = Subst.apply tau (Subst.apply s ag.target) in
        let prev = match TM.find_opt key m with Some vs -> vs | None -> [] in
        if List.exists (Term.equal v) prev then m else TM.add key (v :: prev) m)
      TM.empty solutions
  in
  let numeric vs =
    List.filter_map
      (fun v ->
        match v with
        | Term.Const (Term.Int i) -> Some (float_of_int i)
        | Term.Const (Term.Float f) -> Some f
        | _ -> None)
      vs
  in
  let value vs =
    match ag.func with
    | Literal.Count -> Some (Term.int (List.length vs))
    | Literal.Sum ->
      let ns = numeric vs in
      if List.length ns <> List.length vs then None
      else Some (Term.float (List.fold_left ( +. ) 0.0 ns))
    | Literal.Avg ->
      let ns = numeric vs in
      if ns = [] || List.length ns <> List.length vs then None
      else
        Some
          (Term.float
             (List.fold_left ( +. ) 0.0 ns /. float_of_int (List.length ns)))
    | Literal.Min | Literal.Max -> (
      match vs with
      | [] -> None
      | v0 :: rest ->
        let pick =
          if ag.func = Literal.Min then fun a b ->
            if Term.compare b a < 0 then b else a
          else fun a b -> if Term.compare b a > 0 then b else a
        in
        Some (List.fold_left pick v0 rest))
  in
  TM.fold
    (fun key vs acc ->
      match value vs with
      | None -> acc
      | Some v -> (
        (* Bind the group-by terms to the key and the result to v. *)
        let patterns = List.map (Subst.apply s) ag.group_by in
        match Unify.matches_list ~init:s ~patterns key with
        | None -> acc
        | Some s' -> (
          match Unify.matches ~init:s' ~pattern:(Subst.apply s' ag.result) v with
          | Some s'' -> s'' :: acc
          | None -> acc)))
    groups []

let solve_body ?(stats = no_stats) ~db ~neg ?focus lits =
  let lits = Array.of_list lits in
  let n = Array.length lits in
  let used = Array.make n false in
  let focus_idx = Option.map fst focus in
  (* The greedy order ({!Logic.Rule.next}), one step at a time: all
     substitutions at a step share the same set of bound variables, so
     the next literal is a property of the step. Stepping, rather than
     ordering the whole body first, stops at the first literal that
     leaves no substitution. *)
  let rec step bound ss remaining =
    if remaining = 0 || ss = [] then ss
    else
      match Rule.next ?focus:focus_idx ~bound ~used lits with
      | None -> invalid_arg "Eval.solve_body: body is not range-restricted"
      | Some i ->
        used.(i) <- true;
        let lit = lits.(i) in
        let ss' =
          match lit with
          | Literal.Pos a when Literal.is_builtin a.Atom.pred ->
            List.filter (fun s -> eval_builtin (Atom.apply s a)) ss
          | Literal.Pos a ->
            let rel =
              match focus with
              | Some (f, d) when f = i -> rel_of d a.Atom.pred
              | _ -> rel_of db a.Atom.pred
            in
            List.concat_map (fun s -> extend_pos stats rel s a) ss
          | Literal.Neg a ->
            (* The greedy order only reaches a negated literal once all
               its variables are bound, so [a'] is ground here. *)
            List.filter (fun s -> not (Database.mem neg (Atom.apply s a))) ss
          | Literal.Cmp (Literal.Eq, t1, t2) ->
            (* Equality binds (e.g. the skolem assignment Y = f(X) in
               domain-map assertions), so solve it by unification. *)
            List.filter_map
              (fun s -> Unify.unify ~init:s (Subst.apply s t1) (Subst.apply s t2))
              ss
          | Literal.Cmp (op, t1, t2) ->
            List.filter
              (fun s ->
                match
                  Literal.eval_cmp op (Subst.apply s t1) (Subst.apply s t2)
                with
                | Some b -> b
                | None -> false)
              ss
          | Literal.Assign (t, e) ->
            List.filter_map
              (fun s ->
                match Literal.eval_expr (Literal.apply_expr s e) with
                | None -> None
                | Some v -> Unify.unify ~init:s (Subst.apply s t) v)
              ss
          | Literal.Agg ag -> List.concat_map (fun s -> eval_agg stats ~neg s ag) ss
        in
        step (Literal.bind ~bound lit) ss' (remaining - 1)
  in
  step SS.empty [ Subst.empty ] n

let derive ?stats ~db ~neg ?focus (r : Rule.t) =
  let ss = solve_body ?stats ~db ~neg ?focus r.Rule.body in
  List.map (fun s -> Atom.apply s r.Rule.head) ss

let positive_positions (r : Rule.t) =
  List.mapi (fun i l -> (i, l)) r.Rule.body
  |> List.filter_map (fun (i, l) ->
         match l with Literal.Pos _ -> Some i | _ -> None)
