module Atom = Logic.Atom

type t = (string, Relation.t) Hashtbl.t

let create () : t = Hashtbl.create 64

let relation db pred =
  match Hashtbl.find_opt db pred with
  | Some r -> r
  | None ->
    let r = Relation.create () in
    Hashtbl.add db pred r;
    r

let relation_opt db pred = Hashtbl.find_opt db pred

(* bulk-load entry: like [relation], but a relation created here is
   sized for [hint] rows up front, so a loader that knows the row
   count (the snapshot reader) skips the doubling-resize cascade *)
let relation_hint db pred ~hint =
  match Hashtbl.find_opt db pred with
  | Some r -> r
  | None ->
    let r = Relation.create ~hint:(max 16 hint) () in
    Hashtbl.add db pred r;
    r

let add_tuple db pred tup = Relation.add (relation db pred) tup

let add_fact db (a : Atom.t) = add_tuple db a.Atom.pred a.Atom.args

let remove_fact db (a : Atom.t) =
  match Hashtbl.find_opt db a.Atom.pred with
  | Some r -> Relation.remove r a.Atom.args
  | None -> false

let mem db (a : Atom.t) =
  match Hashtbl.find_opt db a.Atom.pred with
  | Some r -> Relation.mem r a.Atom.args
  | None -> false

let predicates db =
  Hashtbl.fold (fun p _ acc -> p :: acc) db [] |> List.sort String.compare

let cardinal db = Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) db 0

let count db pred =
  match Hashtbl.find_opt db pred with
  | Some r -> Relation.cardinal r
  | None -> 0

let facts db pred =
  match Hashtbl.find_opt db pred with
  | Some r -> List.map (Atom.make pred) (Relation.to_list r)
  | None -> []

let all_facts db =
  List.concat_map (fun p -> facts db p) (predicates db)

let copy ?(keep = fun _ -> true) db =
  let db' = create () in
  Hashtbl.iter
    (fun p r -> if keep p then Hashtbl.replace db' p (Relation.copy r))
    db;
  db'

let merge_into ~dst src =
  Hashtbl.fold
    (fun p r acc ->
      Relation.fold
        (fun tup acc -> if add_tuple dst p tup then acc + 1 else acc)
        r acc)
    src 0

(* Set operations run on the stored packed rows (intern-id key plus
   hash): no sorting and no re-interning of columns. *)
let subset a b =
  Hashtbl.fold
    (fun p ra ok ->
      ok
      &&
      match relation_opt b p with
      | Some rb -> Relation.subset ra rb
      | None -> Relation.is_empty ra)
    a true

(* a ⊆ b with |a| = |b| leaves no fact of b outside a; a relation that
   was touched but holds no rows adds nothing to either side *)
let equal a b = cardinal a = cardinal b && subset a b

let diff a b =
  let d = create () in
  Hashtbl.iter
    (fun p ra ->
      let rb = relation_opt b p in
      Relation.iter_packed
        (fun row ->
          match rb with
          | Some rb when Relation.mem_packed rb row -> ()
          | _ -> ignore (Relation.add_packed (relation d p) row))
        ra)
    a;
  d

let settle db = Hashtbl.iter (fun _ r -> Relation.settle r) db

let of_facts fs =
  let db = create () in
  List.iter (fun f -> ignore (add_fact db f)) fs;
  db

let pp ppf db =
  List.iter
    (fun p ->
      List.iter
        (fun a -> Format.fprintf ppf "%a.@." Atom.pp a)
        (facts db p))
    (predicates db)
