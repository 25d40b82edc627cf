module Closure = Domain_map.Closure

type tree = {
  concept : string;
  own : float;
  total : float;
  children : tree list;
}

let distribution dm ~root ~measure =
  let successors = Closure.successors dm in
  let visited = Hashtbl.create 64 in
  let rec go concept =
    Hashtbl.add visited concept ();
    let own = List.fold_left ( +. ) 0.0 (measure concept) in
    let children =
      List.filter_map
        (fun c -> if Hashtbl.mem visited c then None else Some (go c))
        (successors concept)
    in
    let total = List.fold_left (fun t ch -> t +. ch.total) own children in
    { concept; own; total; children }
  in
  go root

let rec flatten t =
  (t.concept, t.total) :: List.concat_map flatten t.children

let rec depth t =
  1 + List.fold_left (fun d ch -> max d (depth ch)) 0 t.children

let rec size t = 1 + List.fold_left (fun s ch -> s + size ch) 0 t.children

let rec to_term t =
  Logic.Term.app "dist"
    [
      Logic.Term.sym t.concept;
      Logic.Term.float t.total;
      (match t.children with
      | [] -> Logic.Term.sym "nil"
      | children ->
        List.fold_right
          (fun ch acc -> Logic.Term.app "cons" [ to_term ch; acc ])
          children (Logic.Term.sym "nil"));
    ]

let rec prune t =
  {
    t with
    children =
      List.filter_map
        (fun ch -> if ch.total = 0.0 then None else Some (prune ch))
        t.children;
  }

let to_dot ?(title = "distribution") t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph distribution {\n";
  Buffer.add_string buf
    (Printf.sprintf "  label=%S; rankdir=TB; node [shape=box, fontname=\"Helvetica\"];\n"
       title);
  let k = ref 0 in
  let rec go t =
    incr k;
    let my = !k in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\\n%.2f (own %.2f)\"%s];\n" my t.concept
         t.total t.own
         (if t.own > 0.0 then ", style=filled, fillcolor=gray90" else ""));
    List.iter
      (fun ch ->
        let child = go ch in
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" my child))
      t.children;
    my
  in
  ignore (go t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let rec pp ppf t =
  Format.fprintf ppf "@[<v 2>%s: %.3f (own %.3f)" t.concept t.total t.own;
  List.iter (fun ch -> Format.fprintf ppf "@,%a" pp ch) t.children;
  Format.fprintf ppf "@]"
