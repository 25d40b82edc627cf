type cmp = Lt | Le | Gt | Ge | Eq | Ne

type arith_op = Add | Sub | Mul | Div

type expr =
  | Leaf of Term.t
  | Bin of arith_op * expr * expr

type agg_fun = Count | Sum | Min | Max | Avg

type agg = {
  func : agg_fun;
  target : Term.t;
  group_by : Term.t list;
  result : Term.t;
  body : Atom.t list;
}

type t =
  | Pos of Atom.t
  | Neg of Atom.t
  | Cmp of cmp * Term.t * Term.t
  | Assign of Term.t * expr
  | Agg of agg

let builtin_prefix = "builtin:"

let is_builtin p =
  String.length p >= String.length builtin_prefix
  && String.sub p 0 (String.length builtin_prefix) = builtin_prefix

let pos p args = Pos (Atom.make p args)
let neg p args = Neg (Atom.make p args)
let cmp op t1 t2 = Cmp (op, t1, t2)
let assign t e = Assign (t, e)

let agg func ~target ~group_by ~result body =
  Agg { func; target; group_by; result; body }

let count ~target ~group_by ~result body =
  agg Count ~target ~group_by ~result body

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let rec expr_vars = function
  | Leaf t -> Term.vars t
  | Bin (_, e1, e2) -> expr_vars e1 @ expr_vars e2

let vars = function
  | Pos a | Neg a -> Atom.vars a
  | Cmp (_, t1, t2) -> dedup (Term.vars t1 @ Term.vars t2)
  | Assign (t, e) -> dedup (Term.vars t @ expr_vars e)
  | Agg { target; group_by; result; body; _ } ->
    dedup
      (Term.vars target
      @ List.concat_map Term.vars group_by
      @ Term.vars result
      @ List.concat_map Atom.vars body)

let binds = function
  | Pos a when is_builtin a.Atom.pred -> []
  | Pos a -> Atom.vars a
  | Neg _ -> []
  | Cmp (Eq, t1, t2) -> dedup (Term.vars t1 @ Term.vars t2)
  | Cmp _ -> []
  | Assign (t, _) -> Term.vars t
  | Agg { result; group_by; _ } ->
    dedup (Term.vars result @ List.concat_map Term.vars group_by)

let needs = function
  | Pos a when is_builtin a.Atom.pred -> Atom.vars a
  | Pos _ -> []
  | Neg a -> Atom.vars a
  | Cmp (Eq, _, _) -> []
  | Cmp (_, t1, t2) -> dedup (Term.vars t1 @ Term.vars t2)
  | Assign (_, e) -> dedup (expr_vars e)
  | Agg _ ->
    (* Group-by and inner-body variables are evaluated against the
       current database, not the outer bindings, so an aggregate literal
       needs nothing from the outer rule; joins happen via group_by
       variables shared with earlier literals, handled in the engine. *)
    []

module Vars = Set.Make (String)

let rec all_bound bound = function
  | [] -> true
  | x :: xs -> Vars.mem x bound && all_bound bound xs

let evaluable ~bound lit =
  match lit with
  | Cmp (Eq, t1, t2) ->
    (* unification grounds one side only once the other is ground;
       earlier, later negations would be tested non-ground *)
    all_bound bound (Term.vars t1) || all_bound bound (Term.vars t2)
  | l -> all_bound bound (needs l)

let bind ~bound lit =
  List.fold_left (fun acc x -> Vars.add x acc) bound (binds lit)

let rec apply_expr s = function
  | Leaf t -> Leaf (Subst.apply s t)
  | Bin (op, e1, e2) -> Bin (op, apply_expr s e1, apply_expr s e2)

let apply s = function
  | Pos a -> Pos (Atom.apply s a)
  | Neg a -> Neg (Atom.apply s a)
  | Cmp (op, t1, t2) -> Cmp (op, Subst.apply s t1, Subst.apply s t2)
  | Assign (t, e) -> Assign (Subst.apply s t, apply_expr s e)
  | Agg a ->
    Agg
      {
        a with
        target = Subst.apply s a.target;
        group_by = List.map (Subst.apply s) a.group_by;
        result = Subst.apply s a.result;
        body = List.map (Atom.apply s) a.body;
      }

let rec rename_expr ~suffix = function
  | Leaf t -> Leaf (Unify.rename_apart ~suffix t)
  | Bin (op, e1, e2) ->
    Bin (op, rename_expr ~suffix e1, rename_expr ~suffix e2)

let rename_apart ~suffix = function
  | Pos a -> Pos (Atom.rename_apart ~suffix a)
  | Neg a -> Neg (Atom.rename_apart ~suffix a)
  | Cmp (op, t1, t2) ->
    Cmp (op, Unify.rename_apart ~suffix t1, Unify.rename_apart ~suffix t2)
  | Assign (t, e) ->
    Assign (Unify.rename_apart ~suffix t, rename_expr ~suffix e)
  | Agg a ->
    Agg
      {
        a with
        target = Unify.rename_apart ~suffix a.target;
        group_by = List.map (Unify.rename_apart ~suffix) a.group_by;
        result = Unify.rename_apart ~suffix a.result;
        body = List.map (Atom.rename_apart ~suffix) a.body;
      }

let predicates = function
  | Pos a when is_builtin a.Atom.pred -> []
  | Pos a -> [ (a.Atom.pred, false) ]
  | Neg a -> [ (a.Atom.pred, true) ]
  | Cmp _ | Assign _ -> []
  | Agg { body; _ } -> List.map (fun a -> (a.Atom.pred, true)) body

let num_pair t1 t2 =
  match t1, t2 with
  | Term.Const (Term.Int a), Term.Const (Term.Int b) ->
    Some (float_of_int a, float_of_int b)
  | Term.Const (Term.Float a), Term.Const (Term.Float b) -> Some (a, b)
  | Term.Const (Term.Int a), Term.Const (Term.Float b) ->
    Some (float_of_int a, b)
  | Term.Const (Term.Float a), Term.Const (Term.Int b) ->
    Some (a, float_of_int b)
  | _ -> None

let eval_cmp op t1 t2 =
  if not (Term.is_ground t1 && Term.is_ground t2) then None
  else
    match op with
    | Eq -> Some (Term.equal t1 t2)
    | Ne -> Some (not (Term.equal t1 t2))
    | Lt | Le | Gt | Ge -> (
      let test c =
        match op with
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | Eq | Ne -> assert false
      in
      match num_pair t1 t2 with
      | Some (a, b) -> Some (test (Float.compare a b))
      | None -> (
        (* Order strings/symbols lexicographically; reject mixtures. *)
        match Term.as_string t1, Term.as_string t2 with
        | Some a, Some b -> Some (test (String.compare a b))
        | _ -> None))

let rec eval_expr = function
  | Leaf t -> if Term.is_ground t then Some t else None
  | Bin (op, e1, e2) -> (
    match eval_expr e1, eval_expr e2 with
    | Some t1, Some t2 -> (
      match t1, t2 with
      | Term.Const (Term.Int a), Term.Const (Term.Int b) -> (
        match op with
        | Add -> Some (Term.int (a + b))
        | Sub -> Some (Term.int (a - b))
        | Mul -> Some (Term.int (a * b))
        | Div -> if b = 0 then None else Some (Term.int (a / b)))
      | _ -> (
        match num_pair t1 t2 with
        | Some (a, b) -> (
          match op with
          | Add -> Some (Term.float (a +. b))
          | Sub -> Some (Term.float (a -. b))
          | Mul -> Some (Term.float (a *. b))
          | Div -> if b = 0.0 then None else Some (Term.float (a /. b)))
        | None -> None))
    | _ -> None)

let pp_cmp ppf op =
  Format.pp_print_string ppf
    (match op with
    | Lt -> "<"
    | Le -> "=<"
    | Gt -> ">"
    | Ge -> ">="
    | Eq -> "="
    | Ne -> "=/=")

let pp_arith_op ppf op =
  Format.pp_print_string ppf
    (match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/")

let rec pp_expr ppf = function
  | Leaf t -> Term.pp ppf t
  | Bin (op, e1, e2) ->
    Format.fprintf ppf "(%a %a %a)" pp_expr e1 pp_arith_op op pp_expr e2

let pp_agg_fun ppf f =
  Format.pp_print_string ppf
    (match f with
    | Count -> "count"
    | Sum -> "sum"
    | Min -> "min"
    | Max -> "max"
    | Avg -> "avg")

let pp ppf = function
  | Pos a -> Atom.pp ppf a
  | Neg a -> Format.fprintf ppf "not %a" Atom.pp a
  | Cmp (op, t1, t2) ->
    Format.fprintf ppf "%a %a %a" Term.pp t1 pp_cmp op Term.pp t2
  | Assign (t, e) -> Format.fprintf ppf "%a is %a" Term.pp t pp_expr e
  | Agg { func; target; group_by; result; body } ->
    Format.fprintf ppf "%a = %a{%a [%a]; %a}" Term.pp result pp_agg_fun func
      Term.pp target
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Term.pp)
      group_by
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Atom.pp)
      body

let to_string l = Format.asprintf "%a" pp l
