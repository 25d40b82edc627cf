module Term = Logic.Term
module Molecule = Flogic.Molecule

exception Unsupported of string

type served = { mutable requests : int; mutable tuples : int }

type t = {
  name : string;
  schema : Gcm.Schema.t;
  store : Store.t;
  capabilities : Capability.t list;
  anchors : (string * string * string list) list;
  meter : served;
  mutable closed_db : Datalog.Database.t option;
      (* the store closed under the GCM axioms, for template
         evaluation; built on first use (stores are loaded at wrap
         time and append-only afterwards) *)
}

let default_capabilities schema =
  List.map Capability.scan_class (Gcm.Schema.class_names schema)
  @ List.map Capability.scan_relation (Gcm.Schema.relation_names schema)

let make ~name ~schema ?capabilities ?(anchors = []) ?(data = []) () =
  let capabilities =
    match capabilities with
    | Some caps -> caps
    | None -> default_capabilities schema
  in
  let store = Store.create ~signature:(Gcm.Schema.signature schema) () in
  Store.load store data;
  {
    name;
    schema;
    store;
    capabilities;
    anchors;
    meter = { requests = 0; tuples = 0 };
    closed_db = None;
  }

let name t = t.name
let schema t = t.schema
let store t = t.store
let capabilities t = t.capabilities
let anchors t = t.anchors

let of_translation ~name ?capabilities (tr : Cm_plugins.Plugin.translation) =
  make ~name ~schema:tr.Cm_plugins.Plugin.schema ?capabilities
    ~anchors:tr.Cm_plugins.Plugin.anchors ~data:tr.Cm_plugins.Plugin.facts ()

let meter_fetch t n =
  t.meter.requests <- t.meter.requests + 1;
  t.meter.tuples <- t.meter.tuples + n

let fetch_instances t ~cls ~selections =
  if not (Capability.can_scan_class t.capabilities cls) then
    raise
      (Unsupported (Printf.sprintf "source %s does not export class %s" t.name cls));
  let pushable = Capability.pushable_selections t.capabilities ~cls in
  (match
     List.find_opt (fun (m, _, _) -> not (List.mem m pushable)) selections
   with
  | Some (m, _, _) ->
    raise
      (Unsupported
         (Printf.sprintf "source %s cannot filter %s on %s" t.name cls m))
  | None -> ());
  let objs = Store.instances t.store ~cls ~selections in
  meter_fetch t (List.length objs);
  objs

let fetch_tuples t ~rel ~pattern =
  let attrs =
    match Flogic.Signature.attributes (Store.signature t.store) rel with
    | Some attrs -> attrs
    | None ->
      raise
        (Unsupported (Printf.sprintf "source %s has no relation %s" t.name rel))
  in
  let bound = List.map (fun a -> List.mem_assoc a pattern) attrs in
  if not (Capability.admits_pattern t.capabilities ~rel ~bound) then
    raise
      (Unsupported
         (Printf.sprintf "source %s: no capability admits %s[%s]" t.name rel
            (String.concat ""
               (List.map (fun b -> if b then "b" else "f") bound))));
  let tuples = Store.tuples t.store ~rel ~pattern in
  meter_fetch t (List.length tuples);
  tuples

let run_template t ~name:tpl_name ~args =
  match Capability.find_template t.capabilities tpl_name with
  | None ->
    raise
      (Unsupported
         (Printf.sprintf "source %s has no template %s" t.name tpl_name))
  | Some (Capability.Template { params; body; _ }) ->
    (match List.find_opt (fun p -> not (List.mem_assoc p args)) params with
    | Some p ->
      raise
        (Unsupported
           (Printf.sprintf "template %s: missing argument $%s" tpl_name p))
    | None -> ());
    let spliced =
      Capability.instantiate body (fun p ->
          Option.map Term.to_string (List.assoc_opt p args))
    in
    (match
       Flogic.Fl_parser.parse_query ~signature:(Store.signature t.store) spliced
     with
    | Error e -> raise (Unsupported (Printf.sprintf "template %s: %s" tpl_name e))
    | Ok lits ->
      (* Evaluate against the closed local store (run axioms). *)
      let fl =
        Flogic.Fl_program.make ~signature:(Store.signature t.store) []
      in
      let db =
        match t.closed_db with
        | Some db -> db
        | None ->
          let db = Flogic.Fl_program.run fl ~edb:(Store.database t.store) in
          t.closed_db <- Some db;
          db
      in
      let answers = Flogic.Fl_program.query fl db lits in
      meter_fetch t (List.length answers);
      answers)
  | Some _ -> assert false

let ping t = meter_fetch t 0

let served t = t.meter

let reset_meter t =
  t.meter.requests <- 0;
  t.meter.tuples <- 0

let facts t =
  Datalog.Database.all_facts (Store.database t.store)
  |> List.filter_map (fun (a : Logic.Atom.t) ->
         let d = Flogic.Compile.declared in
         match a.Logic.Atom.pred, a.Logic.Atom.args with
         | p, [ x; c ] when p = d Flogic.Compile.isa_p ->
           Option.map (fun c -> Molecule.Isa (x, Term.sym c)) (Term.as_string c)
         | p, [ x; m; v ] when p = d Flogic.Compile.meth_val_p ->
           Option.map (fun m -> Molecule.Meth_val (x, m, v)) (Term.as_string m)
         | rel, args -> (
           match Flogic.Signature.attributes (Store.signature t.store) rel with
           | Some attrs when List.length attrs = List.length args ->
             Some (Molecule.Rel_val (rel, List.combine attrs args))
           | _ -> None))

let export_xml t =
  Cm_plugins.Gcm_xml.export ~source:t.name
    { Cm_plugins.Plugin.schema = t.schema; facts = facts t; anchors = t.anchors }

let pp ppf t =
  Format.fprintf ppf "source %s: %d classes, %d relations, %d facts@." t.name
    (List.length (Gcm.Schema.class_names t.schema))
    (List.length (Gcm.Schema.relation_names t.schema))
    (Datalog.Database.cardinal (Store.database t.store));
  List.iter
    (fun c -> Format.fprintf ppf "  capability: %a@." Capability.pp c)
    t.capabilities
