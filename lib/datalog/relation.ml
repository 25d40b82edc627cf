module Term = Logic.Term
module Packed = Tuple.Packed

(* A multi-column hash index over a bound-position signature: rows are
   bucketed by the intern ids of the columns listed in [positions]
   (strictly increasing). Selectivity is estimated as the number of
   distinct keys; a superset signature is always at least as selective.
   Rows too short for the signature are simply not indexed (they cannot
   match a pattern of that shape). Single-column signatures — the
   overwhelmingly common case — key their table on the plain intern id,
   so probes hash an int instead of an int array. *)
type tbl =
  | T1 of (int, Packed.t list ref) Hashtbl.t
  | Tn of (int array, Packed.t list ref) Hashtbl.t

(* [seen] counts how many rows of the owning relation's insertion log
   this index has integrated: index maintenance is lazy. Inserts append
   to the relation's log (a cons per row); an index only pays the
   bucket work when it is actually probed, so an index that stops being
   probed (e.g. one built for a seed round over a then-empty IDB
   relation) costs nothing as the relation grows. *)
type index = { positions : int array; table : tbl; mutable seen : int }

let tbl_length = function
  | T1 h -> Hashtbl.length h
  | Tn h -> Hashtbl.length h

let tbl_find idx (key : int array) =
  match idx.table with
  | T1 h -> Hashtbl.find_opt h key.(0)
  | Tn h -> Hashtbl.find_opt h key

type t = {
  rows : Tuple.Hashset.t;
  mutable indexes : index list;
  mutable log : Packed.t list;  (* newest first; only fed while indexes exist *)
  mutable nlog : int;
}

let create ?(hint = 16) () =
  { rows = Tuple.Hashset.create hint; indexes = []; log = []; nlog = 0 }

let cardinal r = Tuple.Hashset.cardinal r.rows
let is_empty r = Tuple.Hashset.is_empty r.rows

let mem_packed r p = Tuple.Hashset.mem r.rows p
let mem_ids r ids = Tuple.Hashset.mem_ids r.rows ids

let mem r tup =
  match Packed.probe tup with
  | Some p -> mem_packed r p
  | None -> false

let covers idx (p : Packed.t) =
  let n = Array.length idx.positions in
  n = 0 || idx.positions.(n - 1) < Packed.arity p

let bucket_add h key p =
  match Hashtbl.find_opt h key with
  | Some bucket -> bucket := p :: !bucket
  | None -> Hashtbl.add h key (ref [ p ])

let index_insert idx p =
  if covers idx p then
    match idx.table with
    | T1 h -> bucket_add h (Packed.column_id p idx.positions.(0)) p
    | Tn h ->
      bucket_add h (Array.map (fun pos -> Packed.column_id p pos) idx.positions) p

(* Removal prunes buckets by physical equality: [add] inserts the one
   canonical row object into the row set and every index, so [p != q]
   is a constant-time exact test — no structural compares. *)
let bucket_prune h key p =
  match Hashtbl.find_opt h key with
  | Some bucket -> bucket := List.filter (fun q -> q != p) !bucket
  | None -> ()

let index_remove idx p =
  if covers idx p then
    match idx.table with
    | T1 h -> bucket_prune h (Packed.column_id p idx.positions.(0)) p
    | Tn h ->
      bucket_prune h
        (Array.map (fun pos -> Packed.column_id p pos) idx.positions)
        p

(* Integrate the log rows this index has not seen, oldest first, so
   bucket order matches what eager maintenance would have produced.
   Once every index is caught up the log is dropped ([nlog] keeps
   counting — [seen] compares against it, not against the list). *)
let sync r idx =
  let rec take k l acc =
    if k = 0 then acc
    else match l with [] -> acc | p :: rest -> take (k - 1) rest (p :: acc)
  in
  List.iter (fun p -> index_insert idx p) (take (r.nlog - idx.seen) r.log []);
  idx.seen <- r.nlog;
  if List.for_all (fun i -> i.seen = r.nlog) r.indexes then r.log <- []

let ensure_synced r idx = if idx.seen < r.nlog then sync r idx

let settle r = List.iter (fun idx -> ensure_synced r idx) r.indexes

let add_packed r p =
  if Tuple.Hashset.add r.rows p then begin
    if r.indexes <> [] then begin
      r.log <- p :: r.log;
      r.nlog <- r.nlog + 1
    end;
    true
  end
  else false

let load_packed r p =
  Tuple.Hashset.add_new r.rows p;
  if r.indexes <> [] then begin
    r.log <- p :: r.log;
    r.nlog <- r.nlog + 1
  end

let add r tup =
  if not (Tuple.is_ground tup) then
    invalid_arg
      (Format.asprintf "Relation.add: non-ground tuple %a" Tuple.pp tup);
  add_packed r (Packed.of_list tup)

let remove r tup =
  match Packed.probe tup with
  | None -> false
  | Some probe -> (
    match Tuple.Hashset.find r.rows probe with
    | None -> false
    | Some canonical ->
      ignore (Tuple.Hashset.remove r.rows canonical);
      (* catch every index up before pruning: a pending logged insert
         of this very row must not resurface after the removal *)
      List.iter (fun idx -> ensure_synced r idx) r.indexes;
      List.iter (fun idx -> index_remove idx canonical) r.indexes;
      true)

let iter_packed f r = Tuple.Hashset.iter f r.rows
let fold_packed f r init = Tuple.Hashset.fold f r.rows init
let iter f r = iter_packed (fun p -> f (Packed.to_list p)) r
let fold f r init = fold_packed (fun p acc -> f (Packed.to_list p) acc) r init

(* one id-keyed probe per row of [a]: the stored rows already carry
   their intern ids and hash, so nothing is re-interned *)
let subset a b =
  cardinal a <= cardinal b
  && Tuple.Hashset.for_all (fun p -> Tuple.Hashset.mem b.rows p) a.rows

(* sorted for deterministic output: hash-set iteration order is not
   stable, but printed/enumerated extents should be *)
let to_list r = fold (fun tup acc -> tup :: acc) r [] |> List.sort Tuple.compare

let build_index r positions =
  let size = max 16 (cardinal r) in
  let table =
    if Array.length positions = 1 then T1 (Hashtbl.create size)
    else Tn (Hashtbl.create size)
  in
  (* a fresh index iterates the full row set, so it is born caught-up *)
  let idx = { positions; table; seen = r.nlog } in
  iter_packed (fun p -> index_insert idx p) r;
  r.indexes <- idx :: r.indexes;
  idx

let find_index r positions =
  List.find_opt (fun idx -> idx.positions = positions) r.indexes

let ensure_index r positions =
  match find_index r positions with
  | Some idx -> idx
  | None -> build_index r positions

let warm_index r ~pos = ignore (ensure_index r [| pos |])

let lookup_key r ~positions key =
  let idx = ensure_index r positions in
  ensure_synced r idx;
  match tbl_find idx key with
  | Some bucket -> !bucket
  | None -> []

let lookup_key1 r ~pos k =
  let idx = ensure_index r [| pos |] in
  ensure_synced r idx;
  match idx.table with
  | T1 h -> ( match Hashtbl.find_opt h k with Some b -> !b | None -> [])
  | Tn _ -> assert false

(* Probe closures capture the index table directly, so a caller issuing
   many probes (the plan executor) pays the index resolution — the walk
   over [r.indexes] plus a signature compare — once instead of per
   probe. Index tables are updated in place by [add]/[remove] and never
   replaced, so a probe stays valid across interleaved mutations. *)
let prober1 r ~pos =
  let idx = ensure_index r [| pos |] in
  match idx.table with
  | T1 h ->
    fun k ->
      ensure_synced r idx;
      (match Hashtbl.find_opt h k with Some b -> !b | None -> [])
  | Tn _ -> assert false

let prober r ~positions =
  let idx = ensure_index r positions in
  match idx.table with
  | T1 h -> (
    fun key ->
      ensure_synced r idx;
      match Hashtbl.find_opt h key.(0) with Some b -> !b | None -> [])
  | Tn h -> (
    fun key ->
      ensure_synced r idx;
      match Hashtbl.find_opt h key with Some b -> !b | None -> [])

let lookup r ~pos key =
  match Term.find_id key with
  | None -> []
  | Some k -> List.map Packed.to_list (lookup_key1 r ~pos k)

let matches_pattern pattern tup =
  match Logic.Unify.matches_list ~patterns:pattern tup with
  | Some _ -> true
  | None -> false

(* The signature of a pattern: every ground position, with its id —
   [None] when a ground component was never interned (no row matches). *)
let ground_signature pattern =
  let rec go i acc = function
    | [] -> Some (List.rev acc)
    | t :: rest ->
      if Term.is_ground t then
        match Term.find_id t with
        | Some k -> go (i + 1) ((i, k) :: acc) rest
        | None -> None
      else go (i + 1) acc rest
  in
  go 0 [] pattern

(* The rows that can match a pattern with ground positions [sig_]. *)
let select_packed r sig_ =
  match sig_ with
  | [] -> fold_packed (fun p acc -> p :: acc) r []
  | _ ->
    let positions = Array.of_list (List.map fst sig_) in
    let key = Array.of_list (List.map snd sig_) in
    (* Prefer the exact-signature index (maximal selectivity: one probe
       pins every ground column). If only narrower indexes exist, take
       the subset index with the highest distinct-key count; build the
       exact index when nothing covers the pattern. Signatures come
       from rule shapes, so the set of indexes per relation stays
       small. *)
    (match find_index r positions with
    | Some idx -> (idx, key)
    | None ->
      let subset idx =
        Array.for_all
          (fun p -> List.mem_assoc p sig_)
          idx.positions
        && Array.length idx.positions > 0
      in
      let candidates = List.filter subset r.indexes in
      let best =
        List.fold_left
          (fun acc idx ->
            match acc with
            | Some b when tbl_length b.table >= tbl_length idx.table -> acc
            | _ -> Some idx)
          None candidates
      in
      match best with
      | Some idx when 2 * tbl_length idx.table >= cardinal r ->
        (* the narrower index is already near-unique on this relation:
           probing it beats paying a fresh index build *)
        (idx, Array.map (fun p -> List.assoc p sig_) idx.positions)
      | _ ->
        let idx = build_index r positions in
        (idx, key))
    |> fun (idx, key) ->
    ensure_synced r idx;
    (match tbl_find idx key with
    | Some bucket -> !bucket
    | None -> [])

let select r ~pattern =
  match ground_signature pattern with
  | None -> []
  | Some sig_ when List.compare_lengths sig_ pattern = 0 ->
    (* every column ground: a row-set membership test, as a compiled
       scan makes it, so no index keys every column *)
    if mem_ids r (Array.of_list (List.map snd sig_)) then [ pattern ] else []
  | Some sig_ ->
    select_packed r sig_
    |> List.filter_map (fun p ->
           let tup = Packed.to_list p in
           if matches_pattern pattern tup then Some tup else None)

let copy r =
  {
    rows = Tuple.Hashset.copy r.rows;
    (* clone index tables (buckets included) so post-copy lookups reuse
       the built indexes without aliasing mutations across copies *)
    indexes =
      List.map
        (fun idx ->
          let clone h =
            let t = Hashtbl.create (Hashtbl.length h) in
            Hashtbl.iter (fun key bucket -> Hashtbl.add t key (ref !bucket)) h;
            t
          in
          let table =
            match idx.table with T1 h -> T1 (clone h) | Tn h -> Tn (clone h)
          in
          { positions = idx.positions; table; seen = idx.seen })
        r.indexes;
    log = r.log;
    nlog = r.nlog;
  }

let of_list tups =
  let r = create () in
  List.iter (fun tup -> ignore (add r tup)) tups;
  r

let pp ppf r =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Tuple.pp)
    (to_list r)
