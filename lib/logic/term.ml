type const =
  | Sym of string
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type t =
  | Var of string
  | Const of const
  | App of string * t list

let var x = Var x
let sym s = Const (Sym s)
let str s = Const (Str s)
let int i = Const (Int i)
let float f = Const (Float f)
let bool b = Const (Bool b)

let app f = function
  | [] -> invalid_arg "Term.app: empty argument list (use Term.sym)"
  | args -> App (f, args)

let compare_const c1 c2 =
  match c1, c2 with
  | Sym a, Sym b -> String.compare a b
  | Sym _, _ -> -1
  | _, Sym _ -> 1
  | Str a, Str b -> String.compare a b
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Int a, Int b -> Int.compare a b
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float a, Float b -> Float.compare a b
  | Float _, _ -> -1
  | _, Float _ -> 1
  | Bool a, Bool b -> Bool.compare a b

let equal_const c1 c2 = compare_const c1 c2 = 0

let rec compare t1 t2 =
  match t1, t2 with
  | Var a, Var b -> String.compare a b
  | Var _, _ -> -1
  | _, Var _ -> 1
  | Const a, Const b -> compare_const a b
  | Const _, _ -> -1
  | _, Const _ -> 1
  | App (f, xs), App (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else compare_list xs ys

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs' ys'

let equal t1 t2 = compare t1 t2 = 0

let hash t = Hashtbl.hash t

let rec is_ground = function
  | Var _ -> false
  | Const _ -> true
  | App (_, args) -> List.for_all is_ground args

let vars t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Var x ->
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        acc := x :: !acc
      end
    | Const _ -> ()
    | App (_, args) -> List.iter go args
  in
  go t;
  List.rev !acc

let rec depth = function
  | Var _ | Const _ -> 1
  | App (_, args) -> 1 + List.fold_left (fun m a -> max m (depth a)) 0 args

let rec size = function
  | Var _ | Const _ -> 1
  | App (_, args) -> 1 + List.fold_left (fun s a -> s + size a) 0 args

let rec occurs x = function
  | Var y -> String.equal x y
  | Const _ -> false
  | App (_, args) -> List.exists (occurs x) args

let as_const = function Const c -> Some c | Var _ | App _ -> None

let as_sym = function Const (Sym s) -> Some s | _ -> None

let as_int = function Const (Int i) -> Some i | _ -> None

let as_string = function
  | Const (Sym s) | Const (Str s) -> Some s
  | _ -> None

(* Printed terms are read back (result-cache keys, the wire protocol,
   template splices), so a float prints exactly: the shorter of %.15g
   and %.17g that parses to the same value. *)
let float_text f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let pp_const ppf = function
  | Sym s -> Format.pp_print_string ppf s
  | Str s -> Format.fprintf ppf "%S" s
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.pp_print_string ppf (float_text f)
  | Bool b -> Format.pp_print_bool ppf b

let rec pp ppf = function
  | Var x -> Format.fprintf ppf "%s" x
  | Const c -> pp_const ppf c
  | App (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp)
      args

let to_string t = Format.asprintf "%a" pp t

(* ------------------------------------------------------------------ *)
(* Intern pool: every ground term gets a stable small int id, so the
   datalog kernel can compare and hash terms in O(1) via cached ids
   instead of walking structures. The pool lives here (not in Intern)
   to avoid a dependency cycle; {!Intern} re-exports it together with
   pool introspection. Ids are process-global and never recycled. *)

module H = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  (* [Hashtbl.hash] stops after 10 meaningful words, which a chain of
     five nested skolem functions uses up before its innermost object:
     all chains with the same outer functors would share one bucket
     that grows with every new object, and interning would slow down
     over a process's life. These limits reach depth ~30. *)
  let hash t = Hashtbl.hash_param 60 120 t
end)

let pool : int H.t = H.create 4096
let pool_rev : t array ref = ref (Array.make 4096 (Const (Int 0)))
let pool_next = ref 0

let id t =
  match H.find_opt pool t with
  | Some i -> i
  | None ->
    if not (is_ground t) then
      invalid_arg ("Term.id: cannot intern non-ground term " ^ to_string t);
    let i = !pool_next in
    incr pool_next;
    H.add pool t i;
    let cap = Array.length !pool_rev in
    if i >= cap then begin
      let bigger = Array.make (2 * cap) t in
      Array.blit !pool_rev 0 bigger 0 cap;
      pool_rev := bigger
    end;
    !pool_rev.(i) <- t;
    i

let id_opt t = if is_ground t then Some (id t) else None
let find_id t = H.find_opt pool t

let of_id i =
  if i < 0 || i >= !pool_next then invalid_arg "Term.of_id: unknown id"
  else !pool_rev.(i)

let pool_size () = !pool_next

let pool_longest_bucket () = (H.stats pool).Hashtbl.max_bucket_length
