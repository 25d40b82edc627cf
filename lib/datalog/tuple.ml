module Term = Logic.Term

type t = Term.t list

let is_ground = List.for_all Term.is_ground
let compare = Term.compare_list
let equal t1 t2 = compare t1 t2 = 0

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Term.pp)
    t

(* ------------------------------------------------------------------ *)
(* Packed rows: the storage representation inside relations. Columns
   are an array (O(1) positional access for index maintenance) and each
   row caches the intern ids of its columns plus a combined hash, so
   set membership, index probes and removal all run on ints. *)

module Packed = struct
  type row = { terms : Term.t array; key : int array; hash : int }
  type t = row

  let hash_key key =
    Array.fold_left (fun h k -> (h * 1000003) + k + 1) (Array.length key) key
    land max_int

  let of_array terms =
    let key = Array.map Term.id terms in
    { terms; key; hash = hash_key key }

  let of_list l = of_array (Array.of_list l)

  (* Kernel fast path: [ids.(i)] is the intern id of [terms.(i)] where
     the caller already knows it, or -1 to compute it here. Takes
     ownership of both arrays ([ids] becomes the row's key in place). *)
  let of_parts terms ids =
    let n = Array.length terms in
    for i = 0 to n - 1 do
      if ids.(i) < 0 then ids.(i) <- Term.id terms.(i)
    done;
    { terms; key = ids; hash = hash_key ids }

  (* Build a probe row without interning: [None] when some column has
     never been interned, in which case no stored row can equal it. *)
  let probe l =
    let terms = Array.of_list l in
    let n = Array.length terms in
    let key = Array.make n 0 in
    let rec go i =
      if i = n then Some { terms; key; hash = hash_key key }
      else
        match Term.find_id terms.(i) with
        | Some k ->
          key.(i) <- k;
          go (i + 1)
        | None -> None
    in
    go 0
  let to_list p = Array.to_list p.terms
  let arity p = Array.length p.terms
  let column p i = p.terms.(i)
  let column_id p i = p.key.(i)
  let hash p = p.hash

  let equal p q =
    p.hash = q.hash && p.key = q.key (* structural int-array comparison *)
end

(* ------------------------------------------------------------------ *)
(* Id-keyed hash set of packed rows. Rows are mapped to themselves so
   [find] returns the canonical stored row, which relations use for
   physical-equality removal from index buckets. *)

module Hashset = struct
  module H = Hashtbl.Make (struct
    type t = Packed.t

    let equal = Packed.equal
    let hash = Packed.hash
  end)

  type t = Packed.t H.t

  let create n : t = H.create n
  let cardinal = H.length
  let is_empty s = H.length s = 0
  let mem s p = H.mem s p

  (* Equality and hashing read only a row's ids, so a probe needs no
     terms: the empty column array never leaves this function. *)
  let mem_ids s ids =
    H.mem s { Packed.terms = [||]; key = ids; hash = Packed.hash_key ids }

  let find s p = H.find_opt s p

  (* One bucket walk, not two: keys are unique, so a plain [H.add]
     after a failed find cannot create a duplicate binding. *)
  let add s p =
    match H.find_opt s p with
    | Some _ -> false
    | None ->
      H.add s p p;
      true

  (* No walk at all: the caller guarantees [p] is absent (bulk load of
     an already-deduplicated row set). *)
  let add_new s p = H.add s p p

  let remove s p =
    if H.mem s p then begin
      H.remove s p;
      true
    end
    else false

  let iter f s = H.iter (fun _ p -> f p) s
  let fold f s init = H.fold (fun _ p acc -> f p acc) s init

  let for_all f s =
    match iter (fun p -> if not (f p) then raise_notrace Exit) s with
    | () -> true
    | exception Exit -> false

  let copy = H.copy
end
