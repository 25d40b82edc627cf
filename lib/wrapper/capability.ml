type binding = Bound | Free

type t =
  | Scan_class of string
  | Scan_relation of string
  | Select_class of { cls : string; on : string list }
  | Bind_relation of { rel : string; pattern : binding list }
  | Template of { name : string; params : string list; body : string }

let scan_class c = Scan_class c
let scan_relation r = Scan_relation r
let select_class ~cls ~on = Select_class { cls; on }
let bind_relation ~rel ~pattern = Bind_relation { rel; pattern }
let template ~name ~params ~body = Template { name; params; body }

(* Cut a template body at its placeholders — a [$] and the maximal run
   of letters, digits and underscores after it — calling [text] on the
   runs between them and [param] on each placeholder's name. *)
let scan body ~text ~param =
  let n = String.length body in
  let ident = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let rec go start i =
    if i >= n then text (String.sub body start (n - start))
    else if body.[i] = '$' && i + 1 < n && ident body.[i + 1] then begin
      let j = ref (i + 1) in
      while !j < n && ident body.[!j] do
        incr j
      done;
      text (String.sub body start (i - start));
      param (String.sub body (i + 1) (!j - i - 1));
      go !j !j
    end
    else go start (i + 1)
  in
  go 0 0

let placeholders body =
  let ps = ref [] in
  scan body ~text:ignore ~param:(fun p -> ps := p :: !ps);
  List.sort_uniq String.compare !ps

let instantiate body arg =
  let b = Buffer.create (String.length body) in
  scan body ~text:(Buffer.add_string b) ~param:(fun p ->
      Buffer.add_string b (match arg p with Some s -> s | None -> "$" ^ p));
  Buffer.contents b

let can_scan_class caps c =
  List.exists
    (function
      | Scan_class c' -> String.equal c c'
      | Select_class { cls; _ } -> String.equal c cls
      | _ -> false)
    caps

let can_scan_relation caps r =
  List.exists
    (function
      | Scan_relation r' -> String.equal r r'
      | Bind_relation { rel; pattern } ->
        String.equal r rel && List.for_all (( = ) Free) pattern
      | _ -> false)
    caps

let pushable_selections caps ~cls =
  List.concat_map
    (function
      | Select_class { cls = c; on } when String.equal c cls -> on
      | _ -> [])
    caps
  |> List.sort_uniq String.compare

let admits_pattern caps ~rel ~bound =
  List.exists
    (function
      | Scan_relation r -> String.equal r rel
      | Bind_relation { rel = r; pattern } ->
        String.equal r rel
        && List.length pattern = List.length bound
        && List.for_all2
             (fun p b -> match p with Bound -> b | Free -> true)
             pattern bound
      | _ -> false)
    caps

let over_advertise ~classes ~relations =
  List.concat_map
    (fun (cls, methods) ->
      Scan_class cls :: (if methods = [] then [] else [ Select_class { cls; on = methods } ]))
    classes
  @ List.concat_map
      (fun (rel, arity) ->
        [
          Scan_relation rel;
          Bind_relation { rel; pattern = List.init arity (fun _ -> Free) };
        ])
      relations

let find_template caps name =
  List.find_opt
    (function
      | Template { name = n; _ } -> String.equal n name
      | _ -> false)
    caps

let pp ppf = function
  | Scan_class c -> Format.fprintf ppf "scan class %s" c
  | Scan_relation r -> Format.fprintf ppf "scan relation %s" r
  | Select_class { cls; on } ->
    Format.fprintf ppf "select on %s(%s)" cls (String.concat ", " on)
  | Bind_relation { rel; pattern } ->
    Format.fprintf ppf "access %s[%s]" rel
      (String.concat ""
         (List.map (function Bound -> "b" | Free -> "f") pattern))
  | Template { name; params; _ } ->
    Format.fprintf ppf "template %s(%s)" name (String.concat ", " params)
