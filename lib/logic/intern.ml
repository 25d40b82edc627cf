let id = Term.id
let id_opt = Term.id_opt
let find_id = Term.find_id
let of_id = Term.of_id
let size = Term.pool_size

let same t1 t2 =
  match Term.id_opt t1, Term.id_opt t2 with
  | Some i, Some j -> i = j
  | _ -> Term.equal t1 t2

let ids ts = List.map Term.id ts

type stats = { interned : int; longest_bucket : int }

let stats () =
  { interned = Term.pool_size (); longest_bucket = Term.pool_longest_bucket () }
