module Term = Logic.Term
module Atom = Logic.Atom
module Literal = Logic.Literal
module Rule = Logic.Rule
module SS = Literal.Vars

(* Cardinality/cost abstract interpretation over the predicate
   dependency graph: every predicate gets an interval [lo, hi] bounding
   its fixpoint extent, a per-column bound on the number of distinct
   values, and single-column key flags. The per-rule walk that produces
   the sound size bound follows the literal order the engine runs
   ({!Logic.Rule.order}) and prices it with a System-R-style
   selectivity heuristic for the cost report and the cross-product
   lint — the bound must be sound, the cost only has to be a good
   guess. *)

(* ------------------------------------------------------------------ *)
(* Saturating interval arithmetic. [None] is "unbounded": the honest
   answer for skolem-growing recursion. Finite values saturate at
   [huge] — still a sound upper bound for anything a database can
   physically hold. *)

let huge = max_int / 4
let sat n = if n >= huge then huge else n

let sat_add a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some a, Some b -> Some (sat (a + b))

let sat_mul a b =
  match (a, b) with
  | Some 0, _ | _, Some 0 -> Some 0
  | None, _ | _, None -> None
  | Some a, Some b -> Some (if a > huge / b then huge else a * b)

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let max_opt a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some a, Some b -> Some (max a b)

let opt_gt a n = match a with None -> true | Some a -> a > n

type interval = { lo : int; hi : int option }

(* A saturated bound is sound but says nothing, so it is reported as
   an unbounded one. *)
let finite = function Some n when n < huge -> Some n | _ -> None

let pp_interval ppf { lo; hi } =
  match finite hi with
  | Some hi -> Format.fprintf ppf "[%d, %d]" lo hi
  | None -> Format.fprintf ppf "[%d, ∞]" lo

let contains { lo; hi } n =
  n >= lo && match hi with None -> true | Some h -> n <= h

(* ------------------------------------------------------------------ *)
(* The abstract domain: one value per predicate. [cols.(j)] bounds the
   number of distinct values column j can take ([None] = no bound),
   [keys.(j)] records that column j is a key (no two tuples agree on
   it). [widen] marks predicates in a recursive SCC: only their chains
   need widening, so DAG programs keep exact counts. *)

type pinfo = {
  card : interval;
  cols : int option array;
  keys : bool array;
  widen : bool;
}

let bot = { card = { lo = 0; hi = Some 0 }; cols = [||]; keys = [||]; widen = false }

(* Snap growing bounds to powers of two above a small threshold: a
   widened chain takes O(log huge) strict increases, so the worklist
   terminates even when the join estimates creep up by one per round. *)
let widen_threshold = 64

let rec pow2_above n k = if k >= n || k >= huge then sat k else pow2_above n (k * 2)

let widen_up n = if n <= widen_threshold then n else pow2_above n widen_threshold

let join_hi ~widen a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y ->
    if x = y then Some x
    else
      let m = max x y in
      Some (if widen then widen_up m else m)

let join_cols ~widen a b =
  if a = [||] then b
  else if b = [||] then a
  else if Array.length a <> Array.length b then [||]
  else Array.map2 (fun x y -> join_hi ~widen x y) a b

let join_keys a b =
  if a = [||] then b
  else if b = [||] then a
  else if Array.length a <> Array.length b then [||]
  else Array.map2 ( && ) a b

module Dom = struct
  type t = pinfo

  let bot = bot
  let equal = ( = )

  let join a b =
    let widen = a.widen || b.widen in
    {
      card =
        {
          lo = max a.card.lo b.card.lo;
          hi = join_hi ~widen a.card.hi b.card.hi;
        };
      cols = join_cols ~widen a.cols b.cols;
      keys = join_keys a.keys b.keys;
      widen;
    }
end

module Fix = Absint.Make (Dom)

(* ------------------------------------------------------------------ *)
(* Dependency graph, SCCs, and the boundedness check. A rule is
   {e growing} when it sits on a dependency cycle and synthesises fresh
   values on the way around — a function symbol in the head (skolem
   towers) or arithmetic/aggregation in the body. Such a head predicate
   has no finite bound (the engine's depth guard is what terminates
   it), so the analysis reports ∞ rather than pretending. *)

let rule_deps (r : Rule.t) =
  List.sort_uniq String.compare (List.map fst (Rule.body_predicates r))

let term_has_app = function
  | Term.App _ -> true
  | Term.Var _ | Term.Const _ -> false

let head_has_app (r : Rule.t) = List.exists term_has_app r.Rule.head.Atom.args

let body_synthesises (r : Rule.t) =
  List.exists
    (function Literal.Assign _ | Literal.Agg _ -> true | _ -> false)
    r.Rule.body

(* recursive: some body predicate shares the head's SCC *)
let rule_recursive comp (r : Rule.t) =
  match comp (Rule.head_pred r) with
  | None -> false
  | Some c -> List.exists (fun d -> comp d = Some c) (rule_deps r)

let rule_growing comp r =
  rule_recursive comp r && (head_has_app r || body_synthesises r)

(* ------------------------------------------------------------------ *)
(* Seeding: in-program fact rules, an external EDB database, and
   caller-supplied caps (store counts, capability templates, domain-map
   cone sizes). Facts are scanned once for exact counts, per-column
   distinct counts and single-column keys. *)

module TS = Set.Make (Term)

type seed_acc = {
  mutable tuples : Term.t list list;
}

let fact_stats tuples =
  match tuples with
  | [] -> bot
  | first :: _ ->
    let arity = List.length first in
    let n = List.length tuples in
    let consistent = List.for_all (fun t -> List.length t = arity) tuples in
    if not consistent then
      { bot with card = { lo = n; hi = Some n } }
    else begin
      let colsets = Array.make arity TS.empty in
      List.iter
        (List.iteri (fun j t -> colsets.(j) <- TS.add t colsets.(j)))
        tuples;
      let cols = Array.map (fun s -> Some (TS.cardinal s)) colsets in
      let keys = Array.map (fun s -> TS.cardinal s = n) colsets in
      { card = { lo = n; hi = Some n }; cols; keys; widen = false }
    end

let seeds ?edb ?(assume_nonempty = fun _ -> false) ?(seed = fun _ -> None) rules
    =
  let acc : (string, seed_acc) Hashtbl.t = Hashtbl.create 16 in
  let touch p =
    match Hashtbl.find_opt acc p with
    | Some a -> a
    | None ->
      let a = { tuples = [] } in
      Hashtbl.add acc p a;
      a
  in
  List.iter
    (fun r ->
      if Rule.is_fact r then
        let a = touch (Rule.head_pred r) in
        a.tuples <- r.Rule.head.Atom.args :: a.tuples)
    rules;
  (match edb with
  | None -> ()
  | Some db ->
    List.iter
      (fun p ->
        let a = touch p in
        List.iter
          (fun (f : Atom.t) -> a.tuples <- f.Atom.args :: a.tuples)
          (Datalog.Database.facts db p))
      (Datalog.Database.predicates db));
  let base = Hashtbl.create 16 in
  Hashtbl.iter (fun p a -> Hashtbl.replace base p (fact_stats a.tuples)) acc;
  fun p ->
    let facts = Option.value (Hashtbl.find_opt base p) ~default:bot in
    let cap = seed p in
    if assume_nonempty p then
      (* open predicate: the extent is externally populated, so column
         stats from lifted facts do not bound it — only a caller cap
         (e.g. a store count) does. *)
      let hi =
        match cap with
        | Some c -> max_opt c.hi facts.card.hi
        | None -> None
      in
      {
        card = { lo = facts.card.lo; hi };
        cols = [||];
        keys = [||];
        widen = false;
      }
    else facts

(* ------------------------------------------------------------------ *)
(* The per-rule walk: follow the engine's literal order, threading a
   sound row bound and a heuristic cost through it, and record
   cross-product steps. *)

type rule_cost = {
  order : int list;  (** the engine's body order, as literal indices *)
  est : interval;  (** sound bound on tuples the rule derives *)
  cost : int option;  (** heuristic work units for [order] *)
  cross_products : int;  (** join steps sharing no bound variable *)
  inputs_hi : int option;  (** Σ hi over positive body predicates *)
  recursive : bool;
  growing : bool;  (** recursive and synthesising fresh values *)
}

type walk = {
  w_order : int list;
  w_est : int option;  (* sound bound on derived head tuples *)
  w_cost : int option;
  w_cross : int;
  w_head_cols : int option array;
  w_head_keys : bool array;
}

let walk_order env (r : Rule.t) order =
  let lits = Array.of_list r.Rule.body in
  let bound = ref SS.empty in
  let dvar : (string, int option) Hashtbl.t = Hashtbl.create 8 in
  let note_var x d =
    match Hashtbl.find_opt dvar x with
    | None -> Hashtbl.replace dvar x d
    | Some d0 -> Hashtbl.replace dvar x (min_opt d0 d)
  in
  let rows_est = ref (Some 1) in
  let rows_cost = ref (Some 1) in
  let cost = ref (Some 0) in
  let cross = ref 0 in
  let scanned_positive = ref false in
  let add_cost c = cost := sat_add !cost c in
  let info p : pinfo = env p in
  let apply i =
    let lit = lits.(i) in
    (match lit with
    | Literal.Pos a when Literal.is_builtin a.Atom.pred -> add_cost !rows_cost
    | Literal.Pos a ->
      let pi = info a.Atom.pred in
      let hi = pi.card.hi in
      let bound_positions =
        List.mapi (fun j t -> (j, t)) a.Atom.args
        |> List.filter (fun (_, t) ->
               List.for_all (fun x -> SS.mem x !bound) (Term.vars t))
        |> List.map fst
      in
      let full = List.length bound_positions = List.length a.Atom.args in
      let key_hit =
        List.exists
          (fun j -> j < Array.length pi.keys && pi.keys.(j))
          bound_positions
      in
      let sel =
        List.fold_left
          (fun s j ->
            let d =
              if j < Array.length pi.cols then
                match pi.cols.(j) with Some d -> d | None -> 1
              else 1
            in
            sat_mul s (Some (max 1 d)))
          (Some 1) bound_positions
      in
      (* heuristic matches for one probe under the current bindings *)
      let matches_h =
        if full || key_hit then Some 1
        else if bound_positions = [] then hi
        else
          match (hi, sel) with
          | Some h, Some s -> Some (max 1 (h / max 1 s))
          | _ -> hi
      in
      let sound_factor = if full || key_hit then Some 1 else hi in
      if
        !scanned_positive && bound_positions = [] && Atom.vars a <> []
        && opt_gt !rows_est 1 && opt_gt hi 1
      then incr cross;
      scanned_positive := true;
      rows_est := sat_mul !rows_est sound_factor;
      add_cost
        (sat_mul !rows_cost
           (if bound_positions = [] then hi else matches_h));
      rows_cost := sat_mul !rows_cost matches_h;
      List.iteri
        (fun j t ->
          match t with
          | Term.Var x ->
            let colb =
              if j < Array.length pi.cols then pi.cols.(j) else None
            in
            note_var x (min_opt colb hi)
          | _ -> ())
        a.Atom.args
    | Literal.Neg _ -> add_cost !rows_cost
    | Literal.Cmp (Literal.Eq, t1, t2) ->
      add_cost !rows_cost;
      let newly =
        List.filter
          (fun x -> not (SS.mem x !bound))
          (Term.vars t1 @ Term.vars t2)
      in
      List.iter (fun x -> note_var x !rows_est) newly
    | Literal.Cmp _ -> add_cost !rows_cost
    | Literal.Assign (t, _) ->
      add_cost !rows_cost;
      List.iter
        (fun x -> if not (SS.mem x !bound) then note_var x !rows_est)
        (Term.vars t)
    | Literal.Agg ag ->
      let inner =
        List.fold_left
          (fun acc (a : Atom.t) -> sat_mul acc (info a.Atom.pred).card.hi)
          (Some 1) ag.Literal.body
      in
      let groups = max_opt (Some 1) inner in
      rows_est := sat_mul !rows_est groups;
      add_cost (sat_mul !rows_cost inner);
      rows_cost := sat_mul !rows_cost groups;
      List.iter
        (fun x -> if not (SS.mem x !bound) then note_var x groups)
        (Literal.vars lit));
    bound := Literal.bind ~bound:!bound lit
  in
  List.iter apply order;
  (* head clamp: the output also fits in the product of per-column
     distinct bounds *)
  let rec term_distinct t =
    match t with
    | Term.Const _ -> Some 1
    | Term.Var x -> Option.join (Hashtbl.find_opt dvar x)
    | Term.App (_, args) ->
      List.fold_left (fun acc a -> sat_mul acc (term_distinct a)) (Some 1) args
  in
  let head_cols =
    Array.of_list (List.map term_distinct r.Rule.head.Atom.args)
  in
  let col_prod =
    Array.fold_left (fun acc c -> sat_mul acc c) (Some 1) head_cols
  in
  let est = min_opt !rows_est col_prod in
  (* key inference: a single positive literal plus filters only shrinks
     the relation, so a head column copying one of its key columns
     stays a key *)
  let positives =
    List.filter
      (function
        | Literal.Pos a -> not (Literal.is_builtin a.Atom.pred)
        | _ -> false)
      r.Rule.body
  in
  let head_keys =
    match positives with
    | [ Literal.Pos a ]
      when List.for_all
             (function
               | Literal.Pos _ | Literal.Neg _ | Literal.Cmp _ -> true
               | _ -> false)
             r.Rule.body ->
      let pi = info a.Atom.pred in
      let key_vars =
        List.filteri
          (fun j _ -> j < Array.length pi.keys && pi.keys.(j))
          a.Atom.args
        |> List.filter_map (function Term.Var x -> Some x | _ -> None)
      in
      Array.of_list
        (List.map
           (function
             | Term.Var x -> List.mem x key_vars
             | _ -> false)
           r.Rule.head.Atom.args)
    | _ -> Array.make (List.length r.Rule.head.Atom.args) false
  in
  {
    w_order = order;
    w_est = est;
    w_cost = !cost;
    w_cross = !cross;
    w_head_cols = head_cols;
    w_head_keys = head_keys;
  }

(* [None] when the body is not range-restricted *)
let walk env (r : Rule.t) = Option.map (walk_order env r) (Rule.order r)

(* ------------------------------------------------------------------ *)
(* The fixpoint: one transfer per head predicate, recomputing the whole
   head value (seed plus the sum over its rules) so the per-predicate
   join is a plain pointwise max. *)

type result = {
  env : string -> pinfo;
  rules : Rule.t list;
  costs : rule_cost option array;  (* aligned with [rules]; None for facts *)
}

let analyze ?(max_steps = 200_000) ?edb ?assume_nonempty ?seed rules =
  let seed_of = seeds ?edb ?assume_nonempty ?seed rules in
  let comp = Datalog.Stratify.sccs rules in
  let defined = List.filter (fun r -> not (Rule.is_fact r)) rules in
  let by_head = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let h = Rule.head_pred r in
      Hashtbl.replace by_head h (r :: Option.value (Hashtbl.find_opt by_head h) ~default:[]))
    defined;
  let groups =
    Hashtbl.fold (fun p rs acc -> (p, List.rev rs) :: acc) by_head []
  in
  let in_cycle p =
    (* p sits on a dependency cycle iff some rule of its SCC depends on
       that same SCC *)
    match comp p with
    | None -> false
    | Some c ->
      List.exists
        (fun r ->
          comp (Rule.head_pred r) = Some c
          && List.exists (fun d -> comp d = Some c) (rule_deps r))
        defined
  in
  let cap_of p =
    match seed with
    | Some f -> ( match f p with Some c -> c.hi | None -> None)
    | None -> None
  in
  (* distinct(union of contributions) ≤ Σ per-contribution distincts;
     [None] accumulator = nothing contributed yet, [||] = unknown *)
  let add_cols acc contrib =
    match acc with
    | None -> Some contrib
    | Some a ->
      if a = [||] || contrib = [||] || Array.length a <> Array.length contrib
      then Some [||]
      else Some (Array.map2 sat_add a contrib)
  in
  let transfer env (p, rs) =
    let s = seed_of p in
    let walks =
      List.map
        (fun r ->
          if rule_growing comp r then None else walk env r)
        rs
    in
    let hi =
      List.fold_left
        (fun hi w ->
          match w with None -> None | Some w -> sat_add hi w.w_est)
        s.card.hi walks
    in
    let cols0 = if s.card.hi = Some 0 then None else Some s.cols in
    let cols =
      List.fold_left
        (fun acc w ->
          add_cols acc (match w with None -> [||] | Some w -> w.w_head_cols))
        cols0 walks
      |> Option.value ~default:[||]
    in
    (* a key survives only when the head has exactly one contribution *)
    let keys =
      match (walks, s.card.hi) with
      | [ Some w ], Some 0 -> w.w_head_keys
      | _ -> [||]
    in
    let hi = min_opt hi (cap_of p) in
    { card = { lo = s.card.lo; hi }; cols; keys; widen = in_cycle p }
  in
  let spec =
    {
      Fix.heads = (fun (p, _) -> [ p ]);
      deps = (fun (_, rs) -> List.concat_map rule_deps rs);
      transfer;
    }
  in
  (* [init] matters: inside the fixpoint, predicates with no rules (EDB
     facts, open predicates, caps) must read as their seed, not ⊥ *)
  let fix_env = Fix.fixpoint ~max_steps ~init:seed_of spec groups in
  let env p =
    (* defined predicates: the fixpoint value (its transfer already
       folds the seed in); everything else: pure seed (EDB facts, open
       predicates, caps) *)
    if Hashtbl.mem by_head p then fix_env p else seed_of p
  in
  let costs =
    Array.of_list
      (List.map
         (fun r ->
           if Rule.is_fact r then None
           else
             let recursive = rule_recursive comp r in
             let growing = rule_growing comp r in
             let inputs_hi =
               List.fold_left
                 (fun acc (p, _) -> sat_add acc (env p).card.hi)
                 (Some 0)
                 (List.filter (fun (_, neg) -> not neg) (Rule.body_predicates r))
             in
             Option.map
               (fun w ->
                 {
                   order = w.w_order;
                   est = { lo = 0; hi = (if growing then None else w.w_est) };
                   cost = w.w_cost;
                   cross_products = w.w_cross;
                   inputs_hi;
                   recursive;
                   growing;
                 })
               (walk env r))
         rules)
  in
  { env; rules; costs }

(* ------------------------------------------------------------------ *)
(* Accessors *)

let card res p = (res.env p).card
let column_bounds res p = (res.env p).cols

let keys res p =
  let k = (res.env p).keys in
  Array.to_list k
  |> List.mapi (fun i b -> if b then Some i else None)
  |> List.filter_map Fun.id

let unbounded res p = (res.env p).card.hi = None

let intervals res =
  let preds =
    List.sort_uniq String.compare
      (List.concat_map
         (fun r -> Rule.head_pred r :: rule_deps r)
         res.rules)
  in
  List.map (fun p -> (p, card res p)) preds

let rule_costs res =
  List.concat
    (List.mapi
       (fun i r ->
         match res.costs.(i) with Some c -> [ (r, c) ] | None -> [])
       res.rules)
