module Term = Logic.Term
module Atom = Logic.Atom
module Literal = Logic.Literal
module Subst = Logic.Subst
module Unify = Logic.Unify
module Rule = Logic.Rule

exception Unsupported of string

type stats = {
  mutable calls : int;
  mutable answers : int;
  mutable resolutions : int;
}

let new_stats () = { calls = 0; answers = 0; resolutions = 0 }

type table = {
  pattern : Atom.t;            (* normalized call *)
  results : Tuple.Hashset.t;   (* ground argument tuples *)
}

type state = {
  tables : (string, table) Hashtbl.t;
  rules_of : string -> Rule.t list;
  idb : (string, unit) Hashtbl.t;
  strata : (string, int) Hashtbl.t;
  edb : Database.t;
  stats : stats;
  max_rounds : int;
  mutable fresh : int;
  mutable version : int;  (* bumped on every table creation / answer *)
}

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate p =
  List.iter
    (fun (r : Rule.t) ->
      if
        List.exists
          (fun t -> match t with Term.App _ -> true | _ -> false)
          r.Rule.head.Atom.args
      then
        raise
          (Unsupported
             (Printf.sprintf "head function symbol in %s" (Rule.to_string r)));
      List.iter
        (fun l ->
          match l with
          | Literal.Agg _ ->
            raise
              (Unsupported
                 (Printf.sprintf "aggregate literal in %s" (Rule.to_string r)))
          | _ -> ())
        r.Rule.body)
    (Program.rules p);
  match Stratify.stratify p with
  | Stratify.Stratified strata ->
    let tbl = Hashtbl.create 32 in
    List.iteri
      (fun i preds -> List.iter (fun q -> Hashtbl.replace tbl q i) preds)
      strata;
    tbl
  | Stratify.Unstratified cycle ->
    raise
      (Unsupported
         ("unstratified negation through " ^ String.concat ", " cycle))

(* ------------------------------------------------------------------ *)
(* Call normalization *)

let normalize (a : Atom.t) =
  let mapping = Hashtbl.create 4 in
  let k = ref 0 in
  let rec norm t =
    match t with
    | Term.Var x -> (
      match Hashtbl.find_opt mapping x with
      | Some v -> v
      | None ->
        let v = Term.var (Printf.sprintf "V%d" !k) in
        incr k;
        Hashtbl.add mapping x v;
        v)
    | Term.Const _ -> t
    | Term.App (f, args) -> Term.App (f, List.map norm args)
  in
  Atom.make a.Atom.pred (List.map norm a.Atom.args)

let key_of a = Atom.to_string (normalize a)

let ensure_table state a =
  let key = key_of a in
  match Hashtbl.find_opt state.tables key with
  | Some t -> t
  | None ->
    let t = { pattern = normalize a; results = Tuple.Hashset.create 16 } in
    Hashtbl.add state.tables key t;
    state.stats.calls <- state.stats.calls + 1;
    state.version <- state.version + 1;
    t

let add_answer state table tuple =
  if Tuple.Hashset.add table.results (Tuple.Packed.of_list tuple) then begin
    state.stats.answers <- state.stats.answers + 1;
    state.version <- state.version + 1
  end

(* ------------------------------------------------------------------ *)
(* Resolution *)

let rec extend_call state s (a : Atom.t) =
  (* positive literal over a derived predicate: consult (and create) the
     table for the instantiated call. *)
  let a' = Atom.apply s a in
  let table = ensure_table state a' in
  Tuple.Hashset.fold
    (fun row acc ->
      match
        Unify.matches_list ~init:s ~patterns:a'.Atom.args
          (Tuple.Packed.to_list row)
      with
      | Some s' -> s' :: acc
      | None -> acc)
    table.results []

and stratum_of state pred =
  match Hashtbl.find_opt state.strata pred with Some s -> s | None -> 0

and solve_body state ~head_stratum s0 lits =
  (* The greedy order ({!Logic.Rule.next}) stepped from the variables
     the call binds, as in Eval.solve_body. *)
  let module SS = Literal.Vars in
  let lits = Array.of_list lits in
  let n = Array.length lits in
  let used = Array.make n false in
  let rec step bound ss remaining =
    if remaining = 0 || ss = [] then ss
    else
      match Rule.next ~bound ~used lits with
      | None -> invalid_arg "Topdown: body not range-restricted"
      | Some i ->
        used.(i) <- true;
        let lit = lits.(i) in
        let ss' =
          match lit with
          | Literal.Pos a when Literal.is_builtin a.Atom.pred ->
            List.filter (fun s -> Eval.eval_builtin (Atom.apply s a)) ss
          | Literal.Pos a when Hashtbl.mem state.idb a.Atom.pred ->
            List.concat_map (fun s -> extend_call state s a) ss
          | Literal.Pos a ->
            (* extensional *)
            List.concat_map
              (fun s ->
                let pattern = List.map (Subst.apply s) a.Atom.args in
                match Database.relation_opt state.edb a.Atom.pred with
                | None -> []
                | Some rel ->
                  Relation.select rel ~pattern
                  |> List.filter_map (fun tup ->
                         Unify.matches_list ~init:s ~patterns:pattern tup))
              ss
          | Literal.Neg a ->
            List.filter
              (fun s ->
                let a' = Atom.apply s a in
                if Hashtbl.mem state.idb a'.Atom.pred then begin
                  (* complete the called table before testing absence;
                     stratification puts it strictly below the head, so
                     the sub-fixpoint (restricted to lower strata) nests
                     at most #strata deep *)
                  ignore (ensure_table state a');
                  run_fixpoint state ~below:head_stratum;
                  let table = ensure_table state a' in
                  match Tuple.Packed.probe a'.Atom.args with
                  | Some row -> not (Tuple.Hashset.mem table.results row)
                  | None -> true
                end
                else not (Database.mem state.edb a'))
              ss
          | Literal.Cmp (Literal.Eq, t1, t2) ->
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
                | Some value -> Unify.unify ~init:s (Subst.apply s t) value)
              ss
          | Literal.Agg _ -> assert false (* rejected by validate *)
        in
        step (Literal.bind ~bound lit) ss' (remaining - 1)
  in
  let bound0 =
    (* variables bound to *ground* terms by the call substitution: a
       head variable unified with an open call-pattern variable is not
       safe for negation or comparison yet. *)
    List.fold_left
      (fun acc (x, t) -> if Term.is_ground t then SS.add x acc else acc)
      SS.empty (Subst.bindings s0)
  in
  step bound0 [ s0 ] n

and process_table state table =
  let head_atom = table.pattern in
  let head_stratum = stratum_of state head_atom.Atom.pred in
  List.iter
    (fun (r : Rule.t) ->
      state.fresh <- state.fresh + 1;
      let r = Rule.rename_apart ~suffix:(Printf.sprintf "_r%d" state.fresh) r in
      match Atom.unify r.Rule.head head_atom with
      | None -> ()
      | Some s0 ->
        state.stats.resolutions <- state.stats.resolutions + 1;
        let solutions = solve_body state ~head_stratum s0 r.Rule.body in
        List.iter
          (fun s ->
            let answer = Atom.apply s head_atom in
            if Atom.is_ground answer then add_answer state table answer.Atom.args)
          solutions)
    (state.rules_of head_atom.Atom.pred)

(* [below]: only process tables of strata strictly below the bound —
   the sub-fixpoint evaluating a negated call. [max_int] = everything. *)
and run_fixpoint ?(below = max_int) state =
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    if !rounds > state.max_rounds then
      raise
        (Eval.Diverged
           (Printf.sprintf "no tabled fixpoint after %d rounds"
              state.max_rounds));
    let v0 = state.version in
    let snapshot =
      Hashtbl.fold
        (fun _ t acc ->
          if stratum_of state t.pattern.Atom.pred < below then t :: acc
          else acc)
        state.tables []
    in
    List.iter (process_table state) snapshot;
    continue_ := state.version <> v0
  done

(* ------------------------------------------------------------------ *)

let make_state ?(stats = new_stats ()) ?(max_rounds = 100_000) p edb =
  let strata = validate p in
  let by_pred = Hashtbl.create 32 in
  let idb = Hashtbl.create 32 in
  List.iter
    (fun (r : Rule.t) ->
      let pred = Rule.head_pred r in
      Hashtbl.replace idb pred ();
      match Hashtbl.find_opt by_pred pred with
      | Some l -> l := r :: !l
      | None -> Hashtbl.add by_pred pred (ref [ r ]))
    (Program.rules p);
  {
    tables = Hashtbl.create 64;
    rules_of =
      (fun pred ->
        match Hashtbl.find_opt by_pred pred with
        | Some l -> List.rev !l
        | None -> []);
    idb;
    strata;
    edb;
    stats;
    max_rounds;
    fresh = 0;
    version = 0;
  }

let answers_for state goal =
  let table = ensure_table state goal in
  run_fixpoint state;
  Tuple.Hashset.fold
    (fun row acc ->
      let tuple = Tuple.Packed.to_list row in
      match Unify.matches_list ~patterns:goal.Atom.args tuple with
      | Some _ -> tuple :: acc
      | None -> acc)
    table.results []
  |> List.sort Tuple.compare

let solve ?stats ?max_rounds p edb goal =
  let facts, p = Program.split_facts p in
  let edb =
    if facts = [] then edb
    else begin
      let db = Database.copy edb in
      List.iter (fun f -> ignore (Database.add_fact db f)) facts;
      db
    end
  in
  let state = make_state ?stats ?max_rounds p edb in
  if Hashtbl.mem state.idb goal.Atom.pred then answers_for state goal
  else
    (* purely extensional goal *)
    (match Database.relation_opt edb goal.Atom.pred with
    | None -> []
    | Some rel ->
      Relation.select rel ~pattern:goal.Atom.args |> List.sort Tuple.compare)

let solve_many ?stats ?max_rounds p edb goals =
  let facts, p = Program.split_facts p in
  let edb =
    if facts = [] then edb
    else begin
      let db = Database.copy edb in
      List.iter (fun f -> ignore (Database.add_fact db f)) facts;
      db
    end
  in
  let state = make_state ?stats ?max_rounds p edb in
  List.map
    (fun goal ->
      if Hashtbl.mem state.idb goal.Atom.pred then answers_for state goal
      else
        match Database.relation_opt edb goal.Atom.pred with
        | None -> []
        | Some rel ->
          Relation.select rel ~pattern:goal.Atom.args |> List.sort Tuple.compare)
    goals
