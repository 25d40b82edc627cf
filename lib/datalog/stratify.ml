module Rule = Logic.Rule

type edge = { from_pred : string; to_pred : string; nonmono : bool }

let dependency_edges p =
  List.concat_map
    (fun r ->
      List.map
        (fun (q, nonmono) ->
          { from_pred = Rule.head_pred r; to_pred = q; nonmono })
        (Rule.body_predicates r))
    (Program.rules p)
  |> List.sort_uniq Stdlib.compare

type outcome =
  | Stratified of string list list
  | Unstratified of string list

(* Tarjan over the head→body predicate graph. A component is numbered
   when its root completes, after every component reachable from it:
   the numbering is a bottom-up evaluation order. Returns each
   predicate's component and the number of components. *)
let tarjan rules =
  let adj = Hashtbl.create 64 in
  let nodes = ref [] in
  List.iter
    (fun r ->
      let h = Rule.head_pred r in
      nodes := h :: !nodes;
      List.iter
        (fun (d, _) ->
          nodes := d :: !nodes;
          Hashtbl.add adj h d)
        (Rule.body_predicates r))
    rules;
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let comp = Hashtbl.create 64 in
  let ncomp = ref 0 in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Hashtbl.find_all adj v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let c = !ncomp in
      incr ncomp;
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          Hashtbl.replace comp w c;
          if not (String.equal w v) then pop ()
      in
      pop ()
    end
  in
  List.iter
    (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
    (List.sort_uniq String.compare !nodes);
  (comp, !ncomp)

let sccs rules =
  let comp, _ = tarjan rules in
  Hashtbl.find_opt comp

type layers = {
  strata : string list list;
  rules : Rule.t list list;
  cyclic : edge list;
  scc : string -> int;
}

(* One pass over the components, bottom-up: a component sits one
   stratum above each component it reads nonmonotonically and no lower
   than each it reads positively. An edge inside a component sets no
   bound; the nonmonotonic ones among them are collected instead. Rules
   go to the stratum of their head, every stratum listed even when no
   head sits in it. *)
let layers p =
  let prules = Program.rules p in
  let comp, n = tarjan prules in
  let scc q = Hashtbl.find comp q in
  let out = Array.make n [] in
  List.iter
    (fun e ->
      let c = scc e.from_pred in
      out.(c) <- e :: out.(c))
    (List.rev (dependency_edges p));
  let level = Array.make n 0 in
  let cyclic = ref [] in
  for c = 0 to n - 1 do
    List.iter
      (fun e ->
        let d = scc e.to_pred in
        if d = c then (if e.nonmono then cyclic := e :: !cyclic)
        else
          level.(c) <- max level.(c) (level.(d) + if e.nonmono then 1 else 0))
      out.(c)
  done;
  let nb = Array.fold_left max 0 level + 1 in
  let preds = Array.make nb [] and rules = Array.make nb [] in
  (* levels of a bottom-up pass are dense, so no bucket stays empty *)
  Hashtbl.iter (fun q c -> preds.(level.(c)) <- q :: preds.(level.(c))) comp;
  List.iter
    (fun r ->
      let s = level.(scc (Rule.head_pred r)) in
      rules.(s) <- r :: rules.(s))
    prules;
  {
    strata =
      (if n = 0 then []
       else Array.to_list (Array.map (List.sort String.compare) preds));
    rules = Array.to_list (Array.map List.rev rules);
    cyclic = List.rev !cyclic;
    scc;
  }

(* the predicates of the lowest component holding a cyclic edge (the
   first one listed: components are visited bottom-up) *)
let cycle l =
  match l.cyclic with
  | [] -> None
  | e :: _ ->
    let c = l.scc e.from_pred in
    Some (List.filter (fun q -> l.scc q = c) (List.concat l.strata))

let stratify p =
  let l = layers p in
  match cycle l with
  | Some preds -> Unstratified preds
  | None -> Stratified l.strata

let is_stratified p = (layers p).cyclic = []

let rules_by_stratum p =
  let l = layers p in
  match cycle l with Some preds -> Error preds | None -> Ok l.rules
