module Term = Logic.Term
module Atom = Logic.Atom
module Literal = Logic.Literal
module Molecule = Flogic.Molecule
module Signature = Flogic.Signature
module Database = Datalog.Database

type t = { mutable sg : Signature.t; db : Database.t }

let create ?(signature = Signature.empty) () =
  { sg = signature; db = Database.create () }

let signature t = t.sg

let isa_d = Flogic.Compile.declared Flogic.Compile.isa_p
let meth_val_d = Flogic.Compile.declared Flogic.Compile.meth_val_p

let add_instance t id ~cls =
  ignore (Database.add_fact t.db (Atom.make isa_d [ id; Term.sym cls ]))

let add_value t id ~meth v =
  ignore (Database.add_fact t.db (Atom.make meth_val_d [ id; Term.sym meth; v ]))

let add_tuple t ~rel fields =
  match Signature.attributes t.sg rel with
  | None -> invalid_arg (Printf.sprintf "Store.add_tuple: unknown relation %s" rel)
  | Some attrs ->
    let args =
      List.map
        (fun a ->
          match List.assoc_opt a fields with
          | Some v -> v
          | None ->
            invalid_arg
              (Printf.sprintf "Store.add_tuple: %s is missing attribute %s" rel a))
        attrs
    in
    ignore (Database.add_tuple t.db rel args)

let add_fact t m =
  let atoms = Flogic.Compile.head_atoms t.sg m in
  List.iter (fun a -> ignore (Database.add_fact t.db a)) atoms

let load t ms = List.iter (add_fact t) ms

let remove_fact t m =
  let atoms = Flogic.Compile.head_atoms t.sg m in
  List.fold_left
    (fun n a -> if Database.remove_fact t.db a then n + 1 else n)
    0 atoms

let remove_instance t id ~cls =
  ignore (Database.remove_fact t.db (Atom.make isa_d [ id; Term.sym cls ]))

let remove_value t id ~meth v =
  ignore
    (Database.remove_fact t.db (Atom.make meth_val_d [ id; Term.sym meth; v ]))

type obj = { id : Logic.Term.t; values : (string * Logic.Term.t) list }

type selection = string * Literal.cmp * Logic.Term.t

(* Reads look rows up in the relation indexes of the store's database,
   sorted as [Datalog.Engine.answers] sorts them. *)
let rows t pred ~pos key =
  match Database.relation_opt t.db pred with
  | None -> []
  | Some r -> List.sort Datalog.Tuple.compare (Datalog.Relation.lookup r ~pos key)

let members t ~cls = rows t isa_d ~pos:1 (Term.sym cls)

let values_of t id =
  rows t meth_val_d ~pos:0 id
  |> List.filter_map (fun tup ->
         match tup with
         | [ _; m; v ] -> Option.map (fun m -> (m, v)) (Term.as_string m)
         | _ -> None)

let satisfies values (meth, op, rhs) =
  List.exists
    (fun (m, v) ->
      String.equal m meth
      && match Literal.eval_cmp op v rhs with Some true -> true | _ -> false)
    values

let instances t ~cls ~selections =
  members t ~cls
  |> List.filter_map (fun tup ->
         match tup with
         | [ id; _ ] ->
           let values = values_of t id in
           if List.for_all (satisfies values) selections then
             Some { id; values }
           else None
         | _ -> None)

let tuples t ~rel ~pattern =
  match Signature.attributes t.sg rel with
  | None -> []
  | Some attrs ->
    let pat =
      List.mapi
        (fun i a ->
          match List.assoc_opt a pattern with
          | Some v -> v
          | None -> Term.var (Printf.sprintf "_P%d" i))
        attrs
    in
    (match Database.relation_opt t.db rel with
    | None -> []
    | Some r -> Datalog.Relation.select r ~pattern:pat)

let object_count t ~cls = List.length (members t ~cls)

let tuple_count t ~rel = Database.count t.db rel

let classes t =
  match Database.relation_opt t.db isa_d with
  | None -> []
  | Some r ->
    Datalog.Relation.fold
      (fun tup acc ->
        match tup with
        | [ _; c ] -> (
          match Term.as_string c with Some c -> c :: acc | None -> acc)
        | _ -> acc)
      r []
    |> List.sort_uniq String.compare

let relations t = Signature.relations t.sg

let database t = t.db

let fact_count t = Datalog.Database.cardinal t.db
