type t = { head : Atom.t; body : Literal.t list }

let make head body = { head; body }
let fact head = { head; body = [] }
let is_fact r = r.body = []
let head_pred r = r.head.Atom.pred

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

let vars r = dedup (Atom.vars r.head @ List.concat_map Literal.vars r.body)

let apply s r =
  { head = Atom.apply s r.head; body = List.map (Literal.apply s) r.body }

let rename_apart ~suffix r =
  {
    head = Atom.rename_apart ~suffix r.head;
    body = List.map (Literal.rename_apart ~suffix) r.body;
  }

module SS = Literal.Vars

type safety_error =
  | Agg_unbound of string
  | Unbound_var of string
  | Stuck_literal of Literal.t

let pp_safety_error head ppf = function
  | Agg_unbound x ->
    Format.fprintf ppf
      "rule %s: aggregate target/group-by variable %s not bound by inner body"
      (Atom.to_string head) x
  | Unbound_var x ->
    Format.fprintf ppf "rule %s: variable %s is not range-restricted"
      (Atom.to_string head) x
  | Stuck_literal l ->
    Format.fprintf ppf "rule %s: literal %s can never be evaluated"
      (Atom.to_string head) (Literal.to_string l)

let safety_errors r =
  (* Fixpoint: repeatedly pick up variables bound by literals that are
     already evaluable; a literal binds once its needs are satisfied. *)
  let lits = r.body in
  let all_needed =
    dedup
      (Atom.vars r.head
      @ List.concat_map
          (fun l ->
            match l with
            | Literal.Neg a -> Atom.vars a
            | Literal.Cmp (_, t1, t2) -> Term.vars t1 @ Term.vars t2
            | _ -> [])
          lits)
  in
  let rec grow bound =
    let bound' =
      List.fold_left
        (fun acc l ->
          if Literal.evaluable ~bound:acc l then Literal.bind ~bound:acc l
          else acc)
        bound lits
    in
    if SS.equal bound bound' then bound else grow bound'
  in
  let bound = grow SS.empty in
  (* Aggregate inner bodies must bind their own target and group_by. *)
  let agg_errors =
    List.concat_map
      (fun l ->
        match l with
        | Literal.Agg { target; group_by; body; _ } ->
          let inner =
            List.fold_left
              (fun acc a ->
                List.fold_left (fun acc x -> SS.add x acc) acc (Atom.vars a))
              SS.empty body
          in
          List.filter_map
            (fun x -> if SS.mem x inner then None else Some (Agg_unbound x))
            (dedup (Term.vars target @ List.concat_map Term.vars group_by))
        | _ -> [])
      lits
  in
  let unbound =
    List.filter_map
      (fun x -> if SS.mem x bound then None else Some (Unbound_var x))
      all_needed
  in
  (* Every literal must eventually be evaluable; only report literals
     whose unmet needs are not already reported as unbound required
     variables. *)
  let stuck =
    List.filter_map
      (fun l ->
        let unmet =
          List.filter (fun x -> not (SS.mem x bound)) (Literal.needs l)
        in
        if unmet = [] then None
        else if
          List.for_all (fun x -> List.mem (Unbound_var x) unbound) unmet
          && unbound <> []
        then None
        else Some (Stuck_literal l))
      lits
  in
  agg_errors @ unbound @ stuck

(* The greedy step: the focus literal first, then positive atoms with
   the most bound variables (the most selective joins), then tests,
   then aggregates; the first index on a tie. A literal is scored only
   against a rival: later steps often have one candidate left, and
   [Atom.vars] allocates. *)
let rec count_bound bound n = function
  | [] -> n
  | x :: xs -> count_bound bound (if SS.mem x bound then n + 1 else n) xs

let next ?(focus = -1) ~bound ~used lits =
  let score i =
    match lits.(i) with
    | Literal.Pos a ->
      let b = count_bound bound 0 (Atom.vars a) in
      if i = focus then 1000 + b else 100 + b
    | Literal.Neg _ | Literal.Cmp _ | Literal.Assign _ -> 500
    | Literal.Agg _ -> 10
  in
  (* [best_score] is 0 until a rival makes [best] need one *)
  let best = ref (-1) and best_score = ref 0 in
  for i = 0 to Array.length lits - 1 do
    if (not used.(i)) && Literal.evaluable ~bound lits.(i) then
      if !best < 0 then best := i
      else begin
        if !best_score = 0 then best_score := score !best;
        let s = score i in
        if s > !best_score then begin
          best := i;
          best_score := s
        end
      end
  done;
  if !best < 0 then None else Some !best

let order ?focus r =
  let lits = Array.of_list r.body in
  let used = Array.make (Array.length lits) false in
  let rec go bound acc n =
    if n = Array.length lits then Some (List.rev acc)
    else
      match next ?focus ~bound ~used lits with
      | None -> None
      | Some i ->
        used.(i) <- true;
        go (Literal.bind ~bound lits.(i)) (i :: acc) (n + 1)
  in
  go SS.empty [] 0

let check_safety r =
  match safety_errors r with
  | [] -> Ok ()
  | e :: _ -> Error (Format.asprintf "%a" (pp_safety_error r.head) e)

let body_predicates r = List.concat_map Literal.predicates r.body

let compare r1 r2 =
  let c = Atom.compare r1.head r2.head in
  if c <> 0 then c
  else Stdlib.compare (List.map Literal.to_string r1.body)
         (List.map Literal.to_string r2.body)

let equal r1 r2 = compare r1 r2 = 0

let pp ppf r =
  if r.body = [] then Format.fprintf ppf "%a." Atom.pp r.head
  else
    Format.fprintf ppf "%a :- %a." Atom.pp r.head
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Literal.pp)
      r.body

let to_string r = Format.asprintf "%a" pp r
