module Term = Logic.Term
module Atom = Logic.Atom
module Literal = Logic.Literal
module Subst = Logic.Subst
module Rule = Logic.Rule
module SS = Literal.Vars

(* A compiled rule body: the greedy literal order ([Rule.order], the
   one [Eval.solve_body] steps through) fixed at compile time,
   variables numbered into slots of a fixed-size environment array, and
   every positive literal turned into an indexed lookup with
   precomputed key extractors. The interpreter in [Eval] stays as the
   differential-testing oracle.

   Alongside each term slot the executor tracks the column's intern id
   when it is known (slots bound from stored rows carry the row's
   cached id), so lookup keys and emitted rows mostly avoid re-interning
   through the term pool. Lookup keys never intern: a term the pool does
   not know is in no stored row, so its key is -1, which matches none. *)

(* Build a ground term from the environment. Compile-time invariant:
   every [Bslot] is written by an earlier op before it is read, and
   slots only ever hold ground terms (they are bound from ground rows,
   ground unifications, or evaluated expressions). *)
type builder =
  | Bconst of Term.t
  | Bslot of int
  | Bapp of string * builder array

(* One component of a lookup key: constants are interned at compile
   time, plain slots reuse (and memoize) the slot's id, composite
   components are built then looked up per probe. *)
type keysrc = Kfix of int | Kslot of int | Kdyn of builder

(* Match a column of a ground row, binding / checking slots. *)
type pat =
  | Pconst of Term.t
  | Pbind of int
  | Pcheck of int
  | Papp of string * pat array

type col =
  | Ckey          (* covered by the lookup key: equality already holds *)
  | Cpat of pat   (* residual column: match, possibly binding slots *)

type cexpr = Cleaf of builder | Cbin of Literal.arith_op * cexpr * cexpr

type op =
  | Scan of {
      pred : string;
      from_delta : bool;
      positions : int array;  (* key positions, strictly increasing *)
      key : keysrc array;
      cols : col array;       (* one action per column *)
      member : bool;
          (* every column keyed: a membership test on the row set,
             with no index built over all the columns *)
    }
  | Negcheck of { pred : string; args : builder array }
  | Builtin of { pred : string; args : builder array }
  | UnifyEq of { bound : builder; pat : pat }
  | Cmpop of { op : Literal.cmp; left : builder; right : builder }
  | Assign of { expr : cexpr; pat : pat }
  | Aggregate of {
      agg : Literal.agg;
      in_slots : (string * int) list;
      out_slots : (string * int) list;
    }

(* Head column: constants carry their compile-time intern id, plain
   slots reuse the slot id at emit time. *)
type hcol = Hconst of Term.t * int | Hslot of int | Hbuild of builder

type t = {
  head_pred : string;
  head : hcol array;
  nslots : int;
  ops : op array;
  focus_pred : string option;
      (* predicate of the delta-focus literal, when compiled with one —
         lets the caller hand the executor the delta rows directly *)
}

(* ------------------------------------------------------------------ *)
(* Compilation *)

let compile (r : Rule.t) ~focus =
  let slots = Hashtbl.create 8 in
  let nslots = ref 0 in
  let slot_of x =
    match Hashtbl.find_opt slots x with
    | Some i -> i
    | None ->
      let i = !nslots in
      incr nslots;
      Hashtbl.add slots x i;
      i
  in
  let rec builder bound t =
    match t with
    | Term.Const _ -> Bconst t
    | Term.Var x ->
      if not (SS.mem x bound) then
        invalid_arg "Plan.compile: builder over unbound variable";
      Bslot (slot_of x)
    | Term.App (f, args) ->
      if Term.is_ground t then Bconst t
      else Bapp (f, Array.of_list (List.map (builder bound) args))
  in
  (* [bound_ref] accumulates variables bound while matching earlier
     columns of the same literal, so repeated variables compile to
     bind-then-check. *)
  let rec pat bound_ref t =
    match t with
    | Term.Const _ -> Pconst t
    | Term.App _ when Term.is_ground t -> Pconst t
    | Term.Var x ->
      if SS.mem x !bound_ref then Pcheck (slot_of x)
      else begin
        bound_ref := SS.add x !bound_ref;
        Pbind (slot_of x)
      end
    | Term.App (f, args) ->
      Papp (f, Array.of_list (List.map (pat bound_ref) args))
  in
  let rec cexpr bound = function
    | Literal.Leaf t -> Cleaf (builder bound t)
    | Literal.Bin (op, e1, e2) -> Cbin (op, cexpr bound e1, cexpr bound e2)
  in
  let compile_scan bound ~from_delta (a : Atom.t) =
    let bound_ref = ref bound in
    let positions = ref [] in
    let key = ref [] in
    let cols =
      List.mapi
        (fun i t ->
          (* Delta relations live for one round and are scanned once
             per plan, so an index over them can never amortize: delta
             scans always run as full scans with residual checks. *)
          if
            (not from_delta)
            && List.for_all (fun x -> SS.mem x bound) (Term.vars t)
          then begin
            positions := i :: !positions;
            (key :=
               match builder bound t with
               | Bconst c -> Kfix (Term.id c) :: !key
               | Bslot s -> Kslot s :: !key
               | b -> Kdyn b :: !key);
            Ckey
          end
          else Cpat (pat bound_ref t))
        a.Atom.args
    in
    let cols = Array.of_list cols in
    Scan
      {
        pred = a.Atom.pred;
        from_delta;
        positions = Array.of_list (List.rev !positions);
        key = Array.of_list (List.rev !key);
        cols;
        member =
          Array.length cols > 0
          && Array.for_all (function Ckey -> true | Cpat _ -> false) cols;
      }
  in
  let lits = Array.of_list r.Rule.body in
  let compile_lit bound i =
    let lit = lits.(i) in
    match lit with
    | Literal.Pos a when Literal.is_builtin a.Atom.pred ->
      Builtin
        {
          pred = a.Atom.pred;
          args = Array.of_list (List.map (builder bound) a.Atom.args);
        }
    | Literal.Pos a -> compile_scan bound ~from_delta:(focus = Some i) a
    | Literal.Neg a ->
      Negcheck
        {
          pred = a.Atom.pred;
          args = Array.of_list (List.map (builder bound) a.Atom.args);
        }
    | Literal.Cmp (Literal.Eq, t1, t2) ->
      let ground t = List.for_all (fun x -> SS.mem x bound) (Term.vars t) in
      if ground t1 && ground t2 then
        Cmpop
          { op = Literal.Eq; left = builder bound t1; right = builder bound t2 }
      else if ground t1 then
        UnifyEq { bound = builder bound t1; pat = pat (ref bound) t2 }
      else UnifyEq { bound = builder bound t2; pat = pat (ref bound) t1 }
    | Literal.Cmp (op, t1, t2) ->
      Cmpop { op; left = builder bound t1; right = builder bound t2 }
    | Literal.Assign (t, e) ->
      Assign { expr = cexpr bound e; pat = pat (ref bound) t }
    | Literal.Agg ag ->
      let vs = Literal.vars lit in
      let in_slots =
        List.filter_map
          (fun x -> if SS.mem x bound then Some (x, slot_of x) else None)
          vs
      in
      let out_slots =
        List.filter_map
          (fun x -> if SS.mem x bound then None else Some (x, slot_of x))
          (Literal.binds lit)
      in
      Aggregate { agg = ag; in_slots; out_slots }
  in
  (* The greedy order ({!Rule.next}, the one [Rule.order] and
     [Eval.solve_body] step through), fixed once here instead of once
     per round, each literal compiled against the variables bound
     before it. *)
  let used = Array.make (Array.length lits) false in
  let rec step bound ops remaining =
    if remaining = 0 then (bound, ops)
    else
      match Rule.next ?focus ~bound ~used lits with
      | None -> invalid_arg "Plan.compile: body is not range-restricted"
      | Some i ->
        used.(i) <- true;
        let op = compile_lit bound i in
        step (Literal.bind ~bound lits.(i)) (op :: ops) (remaining - 1)
  in
  let bound, ops = step SS.empty [] (Array.length lits) in
  let head =
    Array.of_list
      (List.map
         (fun arg ->
           match builder bound arg with
           | Bconst c -> Hconst (c, Term.id c)
           | Bslot s -> Hslot s
           | b -> Hbuild b)
         r.Rule.head.Atom.args)
  in
  {
    head_pred = r.Rule.head.Atom.pred;
    head;
    nslots = max 1 !nslots;
    ops = Array.of_list (List.rev ops);
    focus_pred =
      (match Option.map (Array.get lits) focus with
      | Some (Literal.Pos a) -> Some a.Atom.pred
      | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Plan cache *)

module Key = struct
  type t = Rule.t * int option

  let equal (r1, f1) (r2, f2) = f1 = f2 && Rule.equal r1 r2

  let hash k = Hashtbl.hash_param 60 120 k
end

module C = Hashtbl.Make (Key)

let cache : t C.t = C.create 256

let cache_size () = C.length cache
let clear_cache () = C.reset cache

let lookup ?(stats = Eval.no_stats) (r : Rule.t) ~focus =
  match C.find_opt cache (r, focus) with
  | Some plan ->
    stats.Eval.plan_cache_hits <- stats.Eval.plan_cache_hits + 1;
    plan
  | None ->
    let t0 = Unix.gettimeofday () in
    let plan = compile r ~focus in
    stats.Eval.order_time <-
      stats.Eval.order_time +. (Unix.gettimeofday () -. t0);
    C.replace cache (r, focus) plan;
    plan

(* ------------------------------------------------------------------ *)
(* Execution *)

let dummy = Term.Const (Term.Bool false)

(* The executor threads two parallel arrays: [env] holds the ground
   term of each slot, [env_ids] its intern id when known (-1
   otherwise). Every write to [env] updates [env_ids]; reads that need
   an id memoize it. [emit] receives the built head columns and their
   ids (fresh arrays, ownership passes to the callback). *)
let no_probe1 : int -> Tuple.Packed.t list = fun _ -> []
let no_proben : int array -> Tuple.Packed.t list = fun _ -> []

let exec_plan ?(stats = Eval.no_stats) ~db ~neg ?delta ?delta_rows plan
    ~(emit : Term.t array -> int array -> unit) =
  let env = Array.make plan.nslots dummy in
  let env_ids = Array.make plan.nslots (-1) in
  let rec build = function
    | Bconst t -> t
    | Bslot i -> env.(i)
    | Bapp (f, bs) -> Term.App (f, Array.to_list (Array.map build bs))
  in
  (* [id] is the intern id of [t] when the caller knows it (a stored
     row's cached column id), -1 otherwise. *)
  let rec pmatch p t id =
    match p with
    | Pconst c -> Term.equal c t
    | Pbind i ->
      env.(i) <- t;
      env_ids.(i) <- id;
      true
    | Pcheck i -> Term.equal env.(i) t
    | Papp (f, ps) -> (
      match t with
      | Term.App (g, args) when String.equal f g ->
        let np = Array.length ps in
        let rec go j = function
          | [] -> j = np
          | a :: rest -> j < np && pmatch ps.(j) a (-1) && go (j + 1) rest
        in
        go 0 args
      | _ -> false)
  in
  let rec to_expr = function
    | Cleaf b -> Literal.Leaf (build b)
    | Cbin (op, e1, e2) -> Literal.Bin (op, to_expr e1, to_expr e2)
  in
  let find_id t = match Term.find_id t with Some id -> id | None -> -1 in
  let slot_id s =
    let id = env_ids.(s) in
    if id >= 0 then id
    else begin
      let id = find_id env.(s) in
      env_ids.(s) <- id;
      id
    end
  in
  let keyval = function
    | Kfix id -> id
    | Kslot s -> slot_id s
    | Kdyn b -> find_id (build b)
  in
  let nops = Array.length plan.ops in
  (* Relations, index probes and probe-key buffers are resolved once per
     execution, not per outer row. Execution never mutates the databases
     (rows are emitted to the caller), so the resolution cannot go stale
     mid-run; probe closures capture index tables that [Relation]
     mutates in place, so they survive absorption between executions. *)
  let rels = Array.make nops None in
  let scan_rows = Array.make nops None in
  let probe1 = Array.make nops no_probe1 in
  let proben = Array.make nops no_proben in
  let keybuf = Array.make nops [||] in
  Array.iteri
    (fun i op ->
      match op with
      | Scan sc ->
        if sc.from_delta then (
          match delta_rows with
          | Some rows -> scan_rows.(i) <- Some rows
          | None -> (
            match delta with
            | None -> ()
            | Some d -> rels.(i) <- Database.relation_opt d sc.pred))
        else (
          match Database.relation_opt db sc.pred with
          | None -> ()
          | Some rel ->
            rels.(i) <- Some rel;
            let npos = Array.length sc.positions in
            if sc.member then keybuf.(i) <- Array.make npos 0
            else if npos = 1 then
              probe1.(i) <- Relation.prober1 rel ~pos:sc.positions.(0)
            else if npos > 1 then begin
              keybuf.(i) <- Array.make npos 0;
              proben.(i) <- Relation.prober rel ~positions:sc.positions
            end)
      | Negcheck ng -> rels.(i) <- Database.relation_opt neg ng.pred
      | _ -> ())
    plan.ops;
  let nhead = Array.length plan.head in
  (* Per-op row callbacks, compiled once per execution (below, after
     [exec] is in scope): plain variable bindings become direct slot
     writes, residual patterns keep column order. Scans fetch their
     callback from this array instead of rebuilding a closure per
     outer row. *)
  let row_action = Array.make nops (fun (_ : Tuple.Packed.t) -> ()) in
  let rec exec i =
    if i = nops then begin
      let args = Array.make nhead dummy in
      let ids = Array.make nhead (-1) in
      for j = 0 to nhead - 1 do
        match plan.head.(j) with
        | Hconst (c, id) ->
          args.(j) <- c;
          ids.(j) <- id
        | Hslot s ->
          args.(j) <- env.(s);
          ids.(j) <- env_ids.(s)
        | Hbuild b -> args.(j) <- build b
      done;
      emit args ids
    end
    else
      match plan.ops.(i) with
      | Scan sc -> (
        (* Delta scans don't count as joins: they are the driver
           iterating the delta, not a join step. *)
        match scan_rows.(i) with
        | Some rows -> List.iter row_action.(i) rows
        | None -> (
          match rels.(i) with
          | None -> ()
          | Some rel ->
            if not sc.from_delta then stats.Eval.joins <- stats.Eval.joins + 1;
            if sc.member then begin
              (* counted like an index probe, so the counters do not
                 depend on how a bound scan is answered: one index
                 hit, and one scanned tuple when the row is there *)
              stats.Eval.index_hits <- stats.Eval.index_hits + 1;
              let key = keybuf.(i) in
              Array.iteri (fun j src -> key.(j) <- keyval src) sc.key;
              if Relation.mem_ids rel key then begin
                stats.Eval.tuples_scanned <- stats.Eval.tuples_scanned + 1;
                exec (i + 1)
              end
            end
            else if Array.length sc.positions = 0 then
              Relation.iter_packed row_action.(i) rel
            else if Array.length sc.positions = 1 then begin
              stats.Eval.index_hits <- stats.Eval.index_hits + 1;
              List.iter row_action.(i) (probe1.(i) (keyval sc.key.(0)))
            end
            else begin
              stats.Eval.index_hits <- stats.Eval.index_hits + 1;
              let key = keybuf.(i) in
              Array.iteri (fun j src -> key.(j) <- keyval src) sc.key;
              List.iter row_action.(i) (proben.(i) key)
            end))
      | Negcheck ng ->
        let present =
          match rels.(i) with
          | None -> false
          | Some rel ->
            Relation.mem rel (Array.to_list (Array.map build ng.args))
        in
        if not present then exec (i + 1)
      | Builtin b ->
        let a = Atom.make b.pred (Array.to_list (Array.map build b.args)) in
        if Eval.eval_builtin a then exec (i + 1)
      | UnifyEq u -> if pmatch u.pat (build u.bound) (-1) then exec (i + 1)
      | Cmpop c -> (
        match Literal.eval_cmp c.op (build c.left) (build c.right) with
        | Some true -> exec (i + 1)
        | Some false | None -> ())
      | Assign asg -> (
        match Literal.eval_expr (to_expr asg.expr) with
        | None -> ()
        | Some v -> if pmatch asg.pat v (-1) then exec (i + 1))
      | Aggregate ag ->
        let s =
          List.fold_left
            (fun s (x, slot) -> Subst.bind x env.(slot) s)
            Subst.empty ag.in_slots
        in
        List.iter
          (fun s' ->
            let all_out =
              List.for_all
                (fun (x, slot) ->
                  match Subst.find x s' with
                  | Some t ->
                    env.(slot) <- t;
                    env_ids.(slot) <- -1;
                    true
                  | None -> false)
                ag.out_slots
            in
            if all_out then exec (i + 1))
          (Eval.eval_agg stats ~neg s ag.agg)
  in
  (* Compile the per-op row callbacks. Splitting binds from residual
     patterns is sound: a variable's first occurrence in a scan is its
     [Pbind] (later ones compile to [Pcheck]), so running every plain
     bind first can only bind slots a residual pattern was going to
     read anyway, and residual patterns keep their column order so a
     bind nested in a [Papp] still precedes the checks derived from
     it. *)
  Array.iteri
    (fun i op ->
      match op with
      | Scan sc ->
        let ncols = Array.length sc.cols in
        let binds = ref [] in
        let others = ref [] in
        Array.iteri
          (fun j c ->
            match c with
            | Ckey -> ()
            | Cpat (Pbind s) -> binds := (j, s) :: !binds
            | Cpat p -> others := (j, p) :: !others)
          sc.cols;
        let binds = Array.of_list (List.rev !binds) in
        let others = Array.of_list (List.rev !others) in
        let nb = Array.length binds in
        let no = Array.length others in
        row_action.(i) <-
          (fun row ->
            stats.Eval.tuples_scanned <- stats.Eval.tuples_scanned + 1;
            if Tuple.Packed.arity row = ncols then begin
              for k = 0 to nb - 1 do
                let j, s = binds.(k) in
                env.(s) <- Tuple.Packed.column row j;
                env_ids.(s) <- Tuple.Packed.column_id row j
              done;
              let ok = ref true in
              let k = ref 0 in
              while !ok && !k < no do
                let j, p = others.(!k) in
                if
                  not
                    (pmatch p
                       (Tuple.Packed.column row j)
                       (Tuple.Packed.column_id row j))
                then ok := false;
                incr k
              done;
              if !ok then exec (i + 1)
            end)
      | _ -> ())
    plan.ops;
  exec 0

let run ?stats ~db ~neg ?delta plan =
  let acc = ref [] in
  exec_plan ?stats ~db ~neg ?delta plan ~emit:(fun args _ids ->
      acc := Atom.make plan.head_pred (Array.to_list args) :: !acc);
  !acc

let derive ?stats ~db ~neg ?focus (r : Rule.t) =
  let focus_idx, delta =
    match focus with Some (i, d) -> (Some i, Some d) | None -> (None, None)
  in
  let plan = lookup ?stats r ~focus:focus_idx in
  run ?stats ~db ~neg ?delta plan

let focus_pred plan = plan.focus_pred

(* A plan can stream rows straight into its head relation while it
   executes iff doing so can never mutate a structure the executor is
   iterating. Delta scans read an immutable row list, keyed scans read
   immutable bucket snapshots, and membership tests and
   negation/builtin steps are point queries — only a full scan of the
   head relation itself (Hashtbl iteration) and aggregate subqueries
   (which re-enter the interpreter over the database) are unsafe under
   insertion while they run. *)
let streamable plan =
  Array.for_all
    (fun op ->
      match op with
      | Scan sc ->
        sc.from_delta
        || Array.length sc.positions > 0
        || not (String.equal sc.pred plan.head_pred)
      | Aggregate _ -> false
      | Negcheck _ | Builtin _ | UnifyEq _ | Cmpop _ | Assign _ -> true)
    plan.ops

(* Whether a non-focus scan reads the plan's own head predicate (the
   non-linear case, e.g. tc(x,y) :- Δtc(x,z), tc(z,y)). Such a plan
   must not stream: streamed emissions become visible to its own later
   probes within the round, so streaming would derive some facts a
   round earlier than buffered execution and change the round count. *)
let reads_own_head plan =
  Array.exists
    (fun op ->
      match op with
      | Scan sc -> (not sc.from_delta) && String.equal sc.pred plan.head_pred
      | _ -> false)
    plan.ops

let run_stream ?stats ~max_term_depth ~db ~neg ?delta ?delta_rows plan ~emit =
  let suppressed = ref 0 in
  exec_plan ?stats ~db ~neg ?delta ?delta_rows plan ~emit:(fun args ids ->
      (* Depth-guard before packing: suppressed skolem towers must not
         be interned into the (permanent) term pool. *)
      let deep = ref false in
      for j = 0 to Array.length args - 1 do
        if Term.depth args.(j) > max_term_depth then deep := true
      done;
      if !deep then incr suppressed
      else emit (Tuple.Packed.of_parts args ids));
  !suppressed

let run_rows ?stats ~max_term_depth ~db ~neg ?delta ?delta_rows plan =
  let rows = ref [] in
  let suppressed =
    run_stream ?stats ~max_term_depth ~db ~neg ?delta ?delta_rows plan
      ~emit:(fun row -> rows := row :: !rows)
  in
  (!rows, suppressed)

let derive_rows ?stats ~max_term_depth ~db ~neg ?focus (r : Rule.t) =
  let focus_idx, delta =
    match focus with Some (i, d) -> (Some i, Some d) | None -> (None, None)
  in
  let plan = lookup ?stats r ~focus:focus_idx in
  run_rows ?stats ~max_term_depth ~db ~neg ?delta plan
