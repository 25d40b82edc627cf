module SS = Set.Make (String)

type pairs = (string * string) list

let adjacency pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      match Hashtbl.find_opt tbl a with
      | Some l -> l := b :: !l
      | None -> Hashtbl.add tbl a (ref [ b ]))
    pairs;
  fun a -> match Hashtbl.find_opt tbl a with Some l -> !l | None -> []

let reachable_set next start =
  let seen = Hashtbl.create 32 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      List.iter go (next n)
    end
  in
  go start;
  Hashtbl.fold (fun n () acc -> SS.add n acc) seen SS.empty

let tc pairs =
  let next = adjacency pairs in
  let sources =
    List.fold_left (fun acc (a, _) -> SS.add a acc) SS.empty pairs
  in
  SS.fold
    (fun a acc ->
      let reach = reachable_set next a in
      SS.fold
        (fun b acc -> if String.equal a b then acc else (a, b) :: acc)
        reach acc)
    sources []
  |> List.sort_uniq compare

let links ?(include_possible = false) (l : Dmap.links) =
  if include_possible then l.Dmap.definite @ l.Dmap.possible else l.Dmap.definite

let dc ~isa_tc pairs =
  let up = adjacency isa_tc in
  (* down: X isa* Z, R(Z,Y) => R links inherited by specialisations. *)
  let down_of =
    let by_src = Hashtbl.create 64 in
    List.iter
      (fun (z, x) ->
        (* z isa* x — record x's specialisation z *)
        match Hashtbl.find_opt by_src x with
        | Some l -> l := z :: !l
        | None -> Hashtbl.add by_src x (ref [ z ]))
      isa_tc;
    fun x -> match Hashtbl.find_opt by_src x with Some l -> !l | None -> []
  in
  let acc = ref [] in
  List.iter
    (fun (z, y) ->
      (* base link *)
      acc := (z, y) :: !acc;
      (* down: specialisations of z inherit the link *)
      List.iter (fun x -> acc := (x, y) :: !acc) (down_of z);
      (* up: the target generalises *)
      List.iter (fun y' -> acc := (z, y') :: !acc) (up y))
    pairs;
  List.sort_uniq compare !acc

let dc_down ~isa_tc pairs =
  let down_of =
    let by_src = Hashtbl.create 64 in
    List.iter
      (fun (z, x) ->
        match Hashtbl.find_opt by_src x with
        | Some l -> l := z :: !l
        | None -> Hashtbl.add by_src x (ref [ z ]))
      isa_tc;
    fun x -> match Hashtbl.find_opt by_src x with Some l -> !l | None -> []
  in
  let acc = ref [] in
  List.iter
    (fun (z, y) ->
      acc := (z, y) :: !acc;
      List.iter (fun x -> acc := (x, y) :: !acc) (down_of z))
    pairs;
  List.sort_uniq compare !acc

let reachable pairs start =
  let next = adjacency pairs in
  SS.elements (reachable_set next start)

(* ------------------------------------------------------------------ *)
(* Closures computed once per map value.

   A [Dmap.t] is immutable: every edit returns a new value. The
   closures of a map are therefore memoised on the map's physical
   identity, and no edit can make them stale — an edited map is a
   different key. One slot (per [include_possible] value) is enough:
   a mediator reads its one current map, and a call on another map
   refills the slot. Within one map value, each role's traversal and
   each root's region are filled on first request. *)

(* [a -> sorted, duplicate-free bs] over the pairs (a, b); with
   [reflexive], each list also holds its key. *)
let group ?(reflexive = false) pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
      Hashtbl.replace tbl a (b :: l))
    pairs;
  Hashtbl.filter_map_inplace
    (fun a l ->
      Some (List.sort_uniq String.compare (if reflexive then a :: l else l)))
    tbl;
  tbl

type role_closure = {
  traversal : pairs;
  next : (string, string list) Hashtbl.t;  (* sorted successors *)
  regions : (string, string list) Hashtbl.t;  (* root -> its region *)
}

type view = {
  isa : pairs;  (* the isa closure, eqv edges both ways *)
  up : (string, string list) Hashtbl.t Lazy.t;  (* c -> ancestors, c included *)
  down : (string, string list) Hashtbl.t Lazy.t;  (* c -> descendants, c included *)
  roles : (string, role_closure) Hashtbl.t;
}

let definite_view : (Dmap.t * view) option ref = ref None
let possible_view : (Dmap.t * view) option ref = ref None

let view ?(include_possible = false) dm =
  let slot = if include_possible then possible_view else definite_view in
  match !slot with
  | Some (k, v) when k == dm -> v
  | _ ->
    let isa =
      let eqv = Dmap.eqv_links dm in
      tc
        (links ~include_possible (Dmap.isa_links dm)
        @ List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) eqv)
    in
    let v =
      {
        isa;
        up = lazy (group ~reflexive:true isa);
        down = lazy (group ~reflexive:true (List.map (fun (a, b) -> (b, a)) isa));
        roles = Hashtbl.create 4;
      }
    in
    slot := Some (dm, v);
    v

let role_closure ?include_possible ?(role = "has") dm =
  let v = view ?include_possible dm in
  match Hashtbl.find_opt v.roles role with
  | Some r -> r
  | None ->
    let base = links ?include_possible (Dmap.role_links dm role) in
    let star_down = dc_down ~isa_tc:v.isa base in
    let isa_down = List.map (fun (a, b) -> (b, a)) v.isa in
    let traversal = List.sort_uniq compare (star_down @ isa_down) in
    let r = { traversal; next = group traversal; regions = Hashtbl.create 16 } in
    Hashtbl.add v.roles role r;
    r

let isa_tc ?include_possible dm = (view ?include_possible dm).isa

let traversal ?include_possible ?role dm =
  (role_closure ?include_possible ?role dm).traversal

let role_dc ?include_possible dm ~role =
  let base = links ?include_possible (Dmap.role_links dm role) in
  dc ~isa_tc:(isa_tc ?include_possible dm) base

let has_a_star ?include_possible ?(role = "has") dm =
  role_dc ?include_possible dm ~role

let cone tbl c = match Hashtbl.find_opt tbl c with Some l -> l | None -> [ c ]

let descendants dm =
  let down = Lazy.force (view dm).down in
  fun c -> cone down c

let ancestors dm =
  let up = Lazy.force (view dm).up in
  fun c -> cone up c

let successors ?include_possible ?role dm =
  let r = role_closure ?include_possible ?role dm in
  fun c -> Option.value ~default:[] (Hashtbl.find_opt r.next c)

let region ?include_possible ?role dm =
  let r = role_closure ?include_possible ?role dm in
  fun root ->
    match Hashtbl.find_opt r.regions root with
    | Some members -> members
    | None ->
      let next c = Option.value ~default:[] (Hashtbl.find_opt r.next c) in
      let members = SS.elements (reachable_set next root) in
      Hashtbl.add r.regions root members;
      members
