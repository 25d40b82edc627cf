(* Conjunctive-query containment modulo the domain map.

   The classical Chandra–Merlin test decides [q1 ⊆ q2] by freezing
   [q1]'s body into a canonical database and searching for a
   homomorphism from [q2]'s body into it that maps head to head. Here
   the canonical database is first *chased* with the consequences the
   GCM axioms and the domain map guarantee in every model of a
   compiled program:

   - declared facts imply their closed versions ([isa_d ⟹ isa], ...);
   - [isa] propagates up the subsumption preorder ([isa(x,C)] and
     [C ⊑* D] give [isa(x,D)]), where [⊑*] combines the program's own
     ground [sub]/[sub_d] facts with the domain map's definite isa
     links (eqv edges contribute both directions) and is transitively
     closed;
   - [sub] is reflexive over the mentioned concepts and transitively
     closed; every mentioned concept is a [class];
   - declared signatures are inherited downward ([meth_sig]).

   The chase only ever adds facts that are derivable from the frozen
   body in any model containing the GCM axioms and the context's
   subsumption pairs, so a homomorphism into the chased database still
   witnesses genuine containment — and a body atom present in the
   chase of the *other* atoms is genuinely implied, which is what the
   minimization hook removes.

   Non-CQ literals (negation, comparisons, assignments, aggregates)
   are handled conservatively: a candidate homomorphism survives only
   if every such literal of [q2] is ground-true under it, entailed by
   [q1]'s numeric constraints (interval reasoning per variable), or
   syntactically present in [q1]'s frozen body. Every shortcut errs
   toward "not contained", never the reverse. *)

module Term = Logic.Term
module Atom = Logic.Atom
module Literal = Logic.Literal
module Rule = Logic.Rule
module Subst = Logic.Subst
module Database = Datalog.Database
module SS = Set.Make (String)
module SM = Map.Make (String)

type ctx = {
  up : SS.t SM.t;
      (* concept -> proper ancestors under the combined subsumption *)
  disjoint : (string * string) list;
  gcm : bool;
}

let empty_ctx = { up = SM.empty; disjoint = []; gcm = true }

let isa_p = Flogic.Compile.isa_p
let sub_p = Flogic.Compile.sub_p
let meth_sig_p = Flogic.Compile.meth_sig_p
let class_p = Flogic.Compile.class_p

(* declared-predicate -> closed-predicate renaming (the closure copy
   axioms of {!Flogic.Gcm_axioms.core}) *)
let closed_of_declared =
  List.map
    (fun p -> (Flogic.Compile.declared p, p))
    [
      isa_p; sub_p; meth_sig_p; Flogic.Compile.meth_val_p; class_p;
    ]

let add_pair up (c, d) =
  if String.equal c d then up
  else
    SM.update c
      (function None -> Some (SS.singleton d) | Some s -> Some (SS.add d s))
      up

let transitive_close pairs =
  Domain_map.Closure.tc pairs

(* ground sub/sub_d facts of the rule set: the subsumptions every model
   of the program contains *)
let harvest_sub_facts rules =
  let subs = [ sub_p; Flogic.Compile.declared sub_p ] in
  List.filter_map
    (fun (r : Rule.t) ->
      if not (Rule.is_fact r) then None
      else
        match r.Rule.head with
        | { Atom.pred; args = [ c; d ] } when List.mem pred subs -> (
          match (Term.as_sym c, Term.as_sym d) with
          | Some c, Some d when not (String.equal c d) -> Some (c, d)
          | _ -> None)
        | _ -> None)
    rules

let make_ctx ?dm ?(rules = []) ?(disjoint = []) ?(gcm = true) () =
  let dm_pairs =
    match dm with None -> [] | Some d -> Domain_map.Closure.isa_tc d
  in
  let pairs = transitive_close (dm_pairs @ harvest_sub_facts rules) in
  let up = List.fold_left add_pair SM.empty pairs in
  { up; disjoint; gcm }

let up_of ctx c =
  match SM.find_opt c ctx.up with Some s -> s | None -> SS.empty

let sub_pairs ctx =
  SM.fold
    (fun c ds acc -> SS.fold (fun d acc -> (c, d) :: acc) ds acc)
    ctx.up []

(* ------------------------------------------------------------------ *)
(* Equality resolution: substitute [v = t] body equations through the
   rule so the canonical instance identifies the merged terms. Trivial
   equations are dropped afterwards. Analysis-internal only — callers
   never see the resolved rule. *)

let resolve_eqs (r : Rule.t) =
  let rec loop fuel (r : Rule.t) =
    if fuel <= 0 then r
    else
      let binding =
        List.find_map
          (function
            | Literal.Cmp (Literal.Eq, Term.Var v, t)
              when not (Term.occurs v t) ->
              Some (v, t)
            | Literal.Cmp (Literal.Eq, t, Term.Var v)
              when (match t with Term.Var _ -> false | _ -> true)
                   && not (Term.occurs v t) ->
              Some (v, t)
            | _ -> None)
          r.Rule.body
      in
      match binding with
      | None -> r
      | Some (v, t) ->
        let s = Subst.bind v t Subst.empty in
        let r = Rule.apply s r in
        let body =
          List.filter
            (function
              | Literal.Cmp (Literal.Eq, a, b) -> not (Term.equal a b)
              | _ -> true)
            r.Rule.body
        in
        loop (fuel - 1) { r with Rule.body }
  in
  loop (List.length r.Rule.body) r

let split_body (r : Rule.t) =
  List.partition_map
    (function
      | Literal.Pos a when not (Literal.is_builtin a.Atom.pred) -> Left a
      | l -> Right l)
    r.Rule.body

(* ------------------------------------------------------------------ *)
(* Freezing *)

(* χ_: a reserved namespace that no user symbol uses, so a frozen
   variable never collides with a constant of the queries *)
let frozen_prefix = "\xCF\x87_"

let frozen v = Term.sym (frozen_prefix ^ v)

let is_frozen s =
  String.length s > String.length frozen_prefix
  && String.sub s 0 (String.length frozen_prefix) = frozen_prefix

let var_of_frozen s =
  String.sub s
    (String.length frozen_prefix)
    (String.length s - String.length frozen_prefix)

let freeze_subst (r : Rule.t) =
  List.fold_left
    (fun s v -> Subst.bind v (frozen v) s)
    Subst.empty (Rule.vars r)

(* ------------------------------------------------------------------ *)
(* The chase *)

let chase ctx (atoms : Atom.t list) =
  let db = Database.create () in
  let add a = ignore (Database.add_fact db a) in
  List.iter add atoms;
  if not ctx.gcm then db
  else begin
    (* declared facts imply their closed versions *)
    let copies =
      List.filter_map
        (fun (a : Atom.t) ->
          Option.map
            (fun p -> { a with Atom.pred = p })
            (List.assoc_opt a.Atom.pred closed_of_declared))
        atoms
    in
    List.iter add copies;
    let atoms = atoms @ copies in
    (* collect the concepts, isa memberships, ground sub pairs and
       declared signatures mentioned by the (closed) atoms *)
    let concepts = ref SS.empty in
    let isas = ref [] and subs = ref [] and meths = ref [] in
    let concept c = concepts := SS.add c !concepts in
    List.iter
      (fun (a : Atom.t) ->
        match (a.Atom.pred, a.Atom.args) with
        | p, [ x; c ] when String.equal p isa_p -> (
          match Term.as_sym c with
          | Some c ->
            concept c;
            isas := (x, c) :: !isas
          | None -> ())
        | p, [ c; d ] when String.equal p sub_p -> (
          match (Term.as_sym c, Term.as_sym d) with
          | Some c, Some d ->
            concept c;
            concept d;
            subs := (c, d) :: !subs
          | _ -> ())
        | p, [ c ] when String.equal p class_p -> (
          match Term.as_sym c with Some c -> concept c | None -> ())
        | p, [ c; m; d ] when String.equal p meth_sig_p -> (
          match Term.as_sym c with
          | Some c ->
            concept c;
            (match Term.as_sym d with Some d -> concept d | None -> ());
            meths := (c, m, d) :: !meths
          | None -> ())
        | _ -> ())
      atoms;
    (* local subsumption: the atoms' own ground pairs plus the context
       pairs rooted at mentioned concepts, transitively closed *)
    let ctx_pairs =
      SS.fold
        (fun c acc -> SS.fold (fun d acc -> (c, d) :: acc) (up_of ctx c) acc)
        !concepts []
    in
    let pairs = transitive_close (!subs @ ctx_pairs) in
    let universe =
      List.fold_left
        (fun u (c, d) -> SS.add c (SS.add d u))
        !concepts pairs
    in
    List.iter
      (fun (c, d) -> add (Atom.make sub_p [ Term.sym c; Term.sym d ]))
      pairs;
    SS.iter
      (fun c ->
        add (Atom.make sub_p [ Term.sym c; Term.sym c ]);
        add (Atom.make class_p [ Term.sym c ]))
      universe;
    (* isa propagates up, declared signatures inherit down *)
    let ups = Hashtbl.create 16 and downs = Hashtbl.create 16 in
    List.iter
      (fun (c, d) ->
        Hashtbl.replace ups c (d :: Option.value (Hashtbl.find_opt ups c) ~default:[]);
        Hashtbl.replace downs d
          (c :: Option.value (Hashtbl.find_opt downs d) ~default:[]))
      pairs;
    List.iter
      (fun (x, c) ->
        List.iter
          (fun d -> add (Atom.make isa_p [ x; Term.sym d ]))
          (Option.value (Hashtbl.find_opt ups c) ~default:[]))
      !isas;
    List.iter
      (fun (c2, m, d) ->
        List.iter
          (fun c1 -> add (Atom.make meth_sig_p [ Term.sym c1; m; d ]))
          (Option.value (Hashtbl.find_opt downs c2) ~default:[]))
      !meths;
    db
  end

(* ------------------------------------------------------------------ *)
(* Numeric interval constraints per variable *)

type interval = {
  lo : float option;
  lo_strict : bool;
  hi : float option;
  hi_strict : bool;
  ne : float list;
}

let top = { lo = None; lo_strict = false; hi = None; hi_strict = false; ne = [] }

let num = function
  | Term.Const (Term.Int i) -> Some (float_of_int i)
  | Term.Const (Term.Float f) -> Some f
  | _ -> None

let rec tighten iv op n =
  match (op : Literal.cmp) with
  | Literal.Lt ->
    if iv.hi = None || n < Option.get iv.hi then
      { iv with hi = Some n; hi_strict = true }
    else if iv.hi = Some n then { iv with hi_strict = true }
    else iv
  | Literal.Le ->
    if iv.hi = None || n < Option.get iv.hi then
      { iv with hi = Some n; hi_strict = false }
    else iv
  | Literal.Gt ->
    if iv.lo = None || n > Option.get iv.lo then
      { iv with lo = Some n; lo_strict = true }
    else if iv.lo = Some n then { iv with lo_strict = true }
    else iv
  | Literal.Ge ->
    if iv.lo = None || n > Option.get iv.lo then
      { iv with lo = Some n; lo_strict = false }
    else iv
  | Literal.Eq -> tighten (tighten iv Literal.Le n) Literal.Ge n
  | Literal.Ne -> { iv with ne = n :: iv.ne }

let interval_empty iv =
  match (iv.lo, iv.hi) with
  | Some lo, Some hi ->
    lo > hi
    || (lo = hi && (iv.lo_strict || iv.hi_strict))
    || (lo = hi && List.mem lo iv.ne)
  | _ -> false

(* does [iv] entail [v op n]? *)
let rec entails iv op n =
  match (op : Literal.cmp) with
  | Literal.Lt -> (
    match iv.hi with
    | Some hi -> hi < n || (hi = n && iv.hi_strict)
    | None -> false)
  | Literal.Le -> ( match iv.hi with Some hi -> hi <= n | None -> false)
  | Literal.Gt -> (
    match iv.lo with
    | Some lo -> lo > n || (lo = n && iv.lo_strict)
    | None -> false)
  | Literal.Ge -> ( match iv.lo with Some lo -> lo >= n | None -> false)
  | Literal.Eq ->
    iv.lo = Some n && iv.hi = Some n && (not iv.lo_strict)
    && not iv.hi_strict
  | Literal.Ne ->
    List.mem n iv.ne
    || entails iv Literal.Lt n
    || entails iv Literal.Gt n

let flip = function
  | Literal.Lt -> Literal.Gt
  | Literal.Le -> Literal.Ge
  | Literal.Gt -> Literal.Lt
  | Literal.Ge -> Literal.Le
  | (Literal.Eq | Literal.Ne) as op -> op

(* variable -> interval map from a rule body (after eq resolution) *)
let constraints_of body =
  List.fold_left
    (fun m l ->
      match l with
      | Literal.Cmp (op, Term.Var v, t) when num t <> None ->
        SM.update v
          (fun iv ->
            Some (tighten (Option.value iv ~default:top) op (Option.get (num t))))
          m
      | Literal.Cmp (op, t, Term.Var v) when num t <> None ->
        SM.update v
          (fun iv ->
            Some
              (tighten (Option.value iv ~default:top) (flip op)
                 (Option.get (num t))))
          m
      | _ -> m)
    SM.empty body

(* ------------------------------------------------------------------ *)
(* Satisfiability *)

let unsatisfiable ctx (r : Rule.t) =
  let r = resolve_eqs r in
  let ground_false =
    List.find_map
      (function
        | Literal.Cmp (op, t1, t2) as l
          when Literal.eval_cmp op t1 t2 = Some false ->
          Some
            (Printf.sprintf "comparison %s is always false"
               (Literal.to_string l))
        | _ -> None)
      r.Rule.body
  in
  match ground_false with
  | Some _ as reason -> reason
  | None -> (
    let ivs = constraints_of r.Rule.body in
    match
      SM.fold
        (fun v iv acc ->
          match acc with
          | Some _ -> acc
          | None ->
            if interval_empty iv then
              Some
                (Printf.sprintf
                   "numeric constraints on %s are contradictory (empty \
                    interval)"
                   v)
            else None)
        ivs None
    with
    | Some _ as reason -> reason
    | None -> (
      let pos, rest = split_body r in
      let fs = freeze_subst r in
      let db = chase ctx (List.map (Atom.apply fs) pos) in
      let neg_conflict =
        List.find_map
          (function
            | Literal.Neg a when Database.mem db (Atom.apply fs a) ->
              Some
                (Printf.sprintf
                   "negated atom %s is implied by the positive body modulo \
                    the domain map"
                   (Atom.to_string a))
            | _ -> None)
          rest
      in
      match neg_conflict with
      | Some _ as reason -> reason
      | None ->
        if ctx.disjoint = [] then None
        else begin
          (* classes of each entity in the chased database *)
          let classes = Hashtbl.create 8 in
          List.iter
            (fun (a : Atom.t) ->
              match (a.Atom.pred, a.Atom.args) with
              | p, [ x; c ] when String.equal p isa_p -> (
                match Term.as_sym c with
                | Some c ->
                  let k = Term.to_string x in
                  Hashtbl.replace classes k
                    (SS.add c
                       (Option.value
                          (Hashtbl.find_opt classes k)
                          ~default:SS.empty))
                | None -> ())
              | _ -> ())
            (Database.all_facts db);
          Hashtbl.fold
            (fun x cs acc ->
              match acc with
              | Some _ -> acc
              | None ->
                List.find_map
                  (fun (c1, c2) ->
                    if SS.mem c1 cs && SS.mem c2 cs then
                      Some
                        (Printf.sprintf
                           "%s would belong to the disjoint concepts %s and \
                            %s"
                           x c1 c2)
                    else None)
                  ctx.disjoint)
            classes None
        end))

(* ------------------------------------------------------------------ *)
(* Containment *)

let literal_equal (l1 : Literal.t) (l2 : Literal.t) =
  l1 = l2
  ||
  match (l1, l2) with
  | Literal.Cmp (o1, a1, b1), Literal.Cmp (o2, a2, b2)
    when (o1 = Literal.Eq && o2 = Literal.Eq)
         || (o1 = Literal.Ne && o2 = Literal.Ne) ->
    Term.equal a1 b2 && Term.equal b1 a2
  | _ -> false

let default_pos_budget = 16

(* is the instantiated q2-literal [l] justified by q1's residual
   literals / numeric constraints? *)
let covered ~frozen_rest1 ~ivs1 l =
  let exact () = List.exists (literal_equal l) frozen_rest1 in
  match l with
  | Literal.Cmp (op, t1, t2) -> (
    match Literal.eval_cmp op t1 t2 with
    | Some b -> b
    | None -> (
      let by_interval sv op n =
        if is_frozen sv then
          match SM.find_opt (var_of_frozen sv) ivs1 with
          | Some iv -> entails iv op n
          | None -> false
        else false
      in
      exact ()
      ||
      match (t1, t2) with
      | Term.Const (Term.Sym sv), t when num t <> None ->
        by_interval sv op (Option.get (num t))
      | t, Term.Const (Term.Sym sv) when num t <> None ->
        by_interval sv (flip op) (Option.get (num t))
      | _ -> false))
  | _ -> exact ()

let contained ?(budget = default_pos_budget) ctx (r1 : Rule.t) (r2 : Rule.t)
    =
  String.equal (Rule.head_pred r1) (Rule.head_pred r2)
  && Atom.arity r1.Rule.head = Atom.arity r2.Rule.head
  &&
  let r1 = resolve_eqs r1 and r2 = resolve_eqs r2 in
  let pos1, _rest1 = split_body r1 in
  let pos2, rest2 = split_body r2 in
  List.length pos2 <= budget
  && List.length pos1 <= 2 * budget
  &&
  let fs = freeze_subst r1 in
  let frozen_head = Atom.apply fs r1.Rule.head in
  let frozen_rest1 = List.map (Literal.apply fs) _rest1 in
  let ivs1 = constraints_of r1.Rule.body in
  let db = chase ctx (List.map (Atom.apply fs) pos1) in
  let sols =
    Datalog.Eval.solve_body ~db ~neg:db
      (List.map (fun a -> Literal.Pos a) pos2)
  in
  List.exists
    (fun s ->
      Atom.equal (Atom.apply s r2.Rule.head) frozen_head
      && List.for_all
           (fun l -> covered ~frozen_rest1 ~ivs1 (Literal.apply s l))
           rest2)
    sols

let equivalent ?budget ctx r1 r2 =
  contained ?budget ctx r1 r2 && contained ?budget ctx r2 r1

(* ------------------------------------------------------------------ *)
(* Implied body atoms and semantic minimization *)

let drop_nth body n = List.filteri (fun i _ -> i <> n) body

let droppable ctx (r : Rule.t) n =
  match List.nth r.Rule.body n with
  | Literal.Pos a when not (Literal.is_builtin a.Atom.pred) -> (
    let candidate = { r with Rule.body = drop_nth r.Rule.body n } in
    match Rule.check_safety candidate with
    | Error _ -> None
    | Ok () -> if contained ctx candidate r then Some (a, candidate) else None)
  | _ -> None

let implied_atoms ctx (r : Rule.t) =
  if Rule.is_fact r || List.length r.Rule.body < 2 then []
  else
    List.filteri (fun n _ -> droppable ctx r n <> None) r.Rule.body
    |> List.filter_map (function
         | Literal.Pos a -> Some a
         | _ -> None)

let minimize_rule ctx (r : Rule.t) =
  if Rule.is_fact r || List.length r.Rule.body < 2 then r
  else
    let rec shrink fuel (r : Rule.t) =
      if fuel <= 0 then r
      else
        let n = List.length r.Rule.body in
        let rec first i =
          if i >= n then None
          else
            match droppable ctx r i with
            | Some (_, candidate) -> Some candidate
            | None -> first (i + 1)
        in
        match first 0 with
        | Some candidate -> shrink (fuel - 1) candidate
        | None -> r
    in
    shrink (List.length r.Rule.body) r

let minimize ctx rules = List.map (minimize_rule ctx) rules

(* ------------------------------------------------------------------ *)
(* View-level redundancy: a candidate IVD whose every rule is already
   contained in some registered rule contributes no answers. *)

let redundant_view ctx ~against candidates =
  candidates <> []
  && List.for_all
       (fun c ->
         List.exists
           (fun r ->
             String.equal (Rule.head_pred c) (Rule.head_pred r)
             && contained ctx c r)
           against)
       candidates
