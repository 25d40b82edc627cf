module Term = Logic.Term
module Literal = Logic.Literal
module Source = Wrapper.Source
module Store = Wrapper.Store
module Region = Domain_map.Region
module Lub = Domain_map.Lub
module Dmap = Domain_map.Dmap

type spec = {
  nt_class : string;
  organism_field : string;
  trans_comp_field : string;
  recv_neuron_field : string;
  recv_comp_field : string;
  protein_amount_class : string;
  protein_name_field : string;
  location_field : string;
  amount_field : string;
  protein_class : string;
  name_field : string;
  ion_field : string;
}

let default_spec =
  {
    nt_class = "neurotransmission";
    organism_field = "organism";
    trans_comp_field = "transmitting_compartment";
    recv_neuron_field = "receiving_neuron";
    recv_comp_field = "receiving_compartment";
    protein_amount_class = "protein_amount";
    protein_name_field = "protein_name";
    location_field = "location";
    amount_field = "amount";
    protein_class = "protein";
    name_field = "name";
    ion_field = "ion_bound";
  }

type step_report = {
  label : string;
  duration_ms : float;
  tuples : int;
  note : string;
}

type outcome = {
  locations : string list;
  sources_contacted : string list;
  proteins : string list;
  root : string option;
  distributions : (string * Aggregate.tree) list;
  steps : step_report list;
  tuples_moved : int;
}

(* ------------------------------------------------------------------ *)
(* Helpers *)

let satisfies values (meth, op, rhs) =
  List.exists
    (fun (m, v) ->
      String.equal m meth
      && match Literal.eval_cmp op v rhs with Some true -> true | _ -> false)
    values

(* Fetch with capability-respecting pushdown, falling back to
   scan-and-filter at the mediator when pushdown is disabled or not
   advertised. Returns the surviving objects; wrapper meters count what
   was actually shipped. *)
let fetch_objects med src ~cls ~selections =
  let cfg = Mediator.config med in
  let scan_and_filter () =
    let objs = Source.fetch_instances src ~cls ~selections:[] in
    List.filter
      (fun (o : Store.obj) -> List.for_all (satisfies o.Store.values) selections)
      objs
  in
  if cfg.Mediator.pushdown && selections <> [] then
    try Source.fetch_instances src ~cls ~selections
    with Source.Unsupported _ -> scan_and_filter ()
  else scan_and_filter ()

let has_class src cls =
  List.mem cls (Gcm.Schema.class_names (Source.schema src))

let value_str (o : Store.obj) field =
  List.filter_map
    (fun (m, v) -> if String.equal m field then Term.as_string v else None)
    o.Store.values

let value_float (o : Store.obj) field =
  List.filter_map
    (fun (m, v) ->
      if String.equal m field then
        match v with
        | Term.Const (Term.Float f) -> Some f
        | Term.Const (Term.Int i) -> Some (float_of_int i)
        | _ -> None
      else None)
    o.Store.values

let total_meter med =
  List.fold_left
    (fun acc s -> acc + (Source.served s).Source.tuples)
    0 (Mediator.sources med)

let timed f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, (Unix.gettimeofday () -. t0) *. 1000.0)

(* The widest traversal root: used when the lub optimisation is off
   ("forcing the mediator to provide a reasonable root" degenerates to
   the whole-map root). *)
let whole_map_root dm =
  let concepts = Dmap.concepts dm in
  let best =
    List.fold_left
      (fun best c ->
        let r = Region.downward dm ~root:c () in
        match best with
        | Some (_, n) when n >= Region.size r -> best
        | _ -> Some (c, Region.size r))
      None concepts
  in
  Option.map fst best

(* ------------------------------------------------------------------ *)

let measure_from_rows rows protein concept =
  List.filter_map
    (fun (p, loc, amount) ->
      if String.equal p protein && String.equal loc concept then Some amount
      else None)
    rows

(* The "amounts_at" query template, when a wrapper declares one, is the
   strongest capability: the whole (protein, location, amount)
   subquery runs wrapper-side and only bindings travel. *)
let rows_via_template med src ~locations =
  if not (Mediator.config med).Mediator.pushdown then None
  else
    match Wrapper.Capability.find_template (Source.capabilities src) "amounts_at" with
    | None -> None
    | Some _ -> (
      try
        Some
          (List.concat_map
             (fun loc ->
               Source.run_template src ~name:"amounts_at"
                 ~args:[ ("loc", Term.sym loc) ]
               |> List.filter_map (fun sub ->
                      match
                        ( Logic.Subst.find "P" sub,
                          Logic.Subst.find "A" sub )
                      with
                      | Some p, Some a -> (
                        match Term.as_string p, a with
                        | Some p, Term.Const (Term.Float amount) ->
                          Some (p, loc, amount)
                        | Some p, Term.Const (Term.Int amount) ->
                          Some (p, loc, float_of_int amount)
                        | _ -> None)
                      | _ -> None))
             locations)
      with Source.Unsupported _ -> None)

let collect_protein_rows spec med ~sources ~locations ~ion =
  (* step 3: retrieve (protein, location, amount) rows for the given
     locations from the given sources, restricted to proteins binding
     [ion]. *)
  let rows = ref [] in
  let skipped = ref [] in
  List.iter
    (fun src_name ->
      match Mediator.find_source med src_name with
      | None -> ()
      | Some src ->
        if has_class src spec.protein_amount_class then begin
          (* ion filter via the protein metadata class *)
          let binding_proteins =
            if has_class src spec.protein_class then
              fetch_objects med src ~cls:spec.protein_class
                ~selections:[ (spec.ion_field, Literal.Eq, Term.sym ion) ]
              |> List.concat_map (fun o -> value_str o spec.name_field)
            else []
          in
          let keep (p, loc, amount) =
            if binding_proteins = [] || List.mem p binding_proteins then
              rows := (p, loc, amount) :: !rows
          in
          match rows_via_template med src ~locations with
          | Some template_rows ->
            (* strongest capability: the subquery ran wrapper-side *)
            List.iter keep template_rows
          | None ->
            let fetched =
              if (Mediator.config med).Mediator.pushdown then
                List.concat_map
                  (fun loc ->
                    fetch_objects med src ~cls:spec.protein_amount_class
                      ~selections:[ (spec.location_field, Literal.Eq, Term.sym loc) ])
                  locations
              else
                fetch_objects med src ~cls:spec.protein_amount_class
                  ~selections:[]
                |> List.filter (fun o ->
                       List.exists
                         (fun loc ->
                           satisfies o.Store.values
                             (spec.location_field, Literal.Eq, Term.sym loc))
                         locations)
            in
            List.iter
              (fun (o : Store.obj) ->
                match
                  ( value_str o spec.protein_name_field,
                    value_str o spec.location_field,
                    value_float o spec.amount_field )
                with
                | p :: _, loc :: _, amount :: _ -> keep (p, loc, amount)
                | _ -> ())
              fetched
        end
        else skipped := src_name :: !skipped)
    sources;
  (List.rev !rows, List.rev !skipped)

let calcium_binding_query ?(spec = default_spec) med ~organism
    ~transmitting_compartment ~ion () =
  List.iter Source.reset_meter (Mediator.sources med);
  let steps = ref [] in
  let record label note tuples duration_ms =
    steps := { label; note; tuples; duration_ms } :: !steps
  in
  (* -- step 1: push selections to the neurotransmission source ------- *)
  let nt_source =
    List.find_opt (fun s -> has_class s spec.nt_class) (Mediator.sources med)
  in
  match nt_source with
  | None -> Error (Printf.sprintf "no registered source exports %s" spec.nt_class)
  | Some nt_src ->
    let before = total_meter med in
    let nt_rows, ms1 =
      timed (fun () ->
          fetch_objects med nt_src ~cls:spec.nt_class
            ~selections:
              [
                (spec.organism_field, Literal.Eq, Term.str organism);
                ( spec.trans_comp_field,
                  Literal.Eq,
                  Term.sym transmitting_compartment );
              ])
    in
    let pairs =
      List.concat_map
        (fun o ->
          List.concat_map
            (fun n ->
              List.map (fun c -> (n, c)) (value_str o spec.recv_comp_field))
            (value_str o spec.recv_neuron_field))
        nt_rows
      |> List.sort_uniq compare
    in
    let locations =
      List.concat_map (fun (n, c) -> [ n; c ]) pairs
      |> List.sort_uniq String.compare
    in
    record "1: push selections to neurotransmission source"
      (Printf.sprintf "%s, %d bindings: {%s}" (Source.name nt_src)
         (List.length nt_rows)
         (String.concat ", " locations))
      (total_meter med - before)
      ms1;
    if locations = [] then
      Error
        (Printf.sprintf "no neurotransmission data for organism=%s, %s=%s"
           organism spec.trans_comp_field transmitting_compartment)
    else begin
      (* -- step 2: source selection via the semantic index ------------ *)
      let chosen, ms2 =
        timed (fun () ->
            Mediator.select_sources_for_pairs med ~pairs
            |> List.filter (fun s -> not (String.equal s (Source.name nt_src))))
      in
      record "2: select sources via domain map"
        (Printf.sprintf "{%s}" (String.concat ", " chosen))
        0 ms2;
      (* -- step 3: push location selections, retrieve proteins -------- *)
      let before3 = total_meter med in
      let (rows, skipped), ms3 =
        timed (fun () ->
            collect_protein_rows spec med ~sources:chosen ~locations ~ion)
      in
      let proteins =
        List.map (fun (p, _, _) -> p) rows |> List.sort_uniq String.compare
      in
      record "3: push selections to protein sources"
        (Printf.sprintf "%d rows, proteins {%s}%s" (List.length rows)
           (String.concat ", " proteins)
           (if skipped = [] then ""
            else " (skipped: " ^ String.concat ", " skipped ^ ")"))
        (total_meter med - before3)
        ms3;
      (* -- step 4: lub root + downward-closure aggregation ------------ *)
      let dm = Mediator.dmap med in
      let root, ms4a =
        timed (fun () ->
            if (Mediator.config med).Mediator.use_lub then
              Option.map (fun (r : Region.t) -> r.Region.root)
                (Region.of_concepts dm locations)
            else whole_map_root dm)
      in
      match root with
      | None -> Error "no distribution root covers the bound locations"
      | Some root_c ->
        let distributions, ms4b =
          timed (fun () ->
              List.map
                (fun p ->
                  ( p,
                    Aggregate.distribution dm ~root:root_c
                      ~measure:(measure_from_rows rows p) ))
                proteins)
        in
        record "4: lub root + aggregate traversal"
          (Printf.sprintf "root=%s, %d distributions" root_c
             (List.length distributions))
          0 (ms4a +. ms4b);
        Ok
          {
            locations;
            sources_contacted = Source.name nt_src :: chosen;
            proteins;
            root = Some root_c;
            distributions;
            steps = List.rev !steps;
            tuples_moved = total_meter med;
          }
    end

let protein_distribution ?(spec = default_spec) med ~protein ~organism ~root =
  ignore organism;
  let region = Region.downward (Mediator.dmap med) ~root () in
  let sources =
    Mediator.select_sources med ~concepts:region.Region.members
  in
  let rows, _ =
    collect_protein_rows spec med ~sources ~locations:region.Region.members
      ~ion:""
  in
  let rows = List.filter (fun (p, _, _) -> String.equal p protein) rows in
  if rows = [] then
    Error (Printf.sprintf "no %s data under %s" protein root)
  else
    Ok
      (Aggregate.distribution (Mediator.dmap med) ~root
         ~measure:(measure_from_rows rows protein))

let pp_outcome ppf o =
  Format.fprintf ppf "locations: %s@." (String.concat ", " o.locations);
  Format.fprintf ppf "sources: %s@." (String.concat ", " o.sources_contacted);
  Format.fprintf ppf "proteins: %s@." (String.concat ", " o.proteins);
  (match o.root with
  | Some r -> Format.fprintf ppf "root: %s@." r
  | None -> ());
  List.iter
    (fun s ->
      Format.fprintf ppf "  [%s] %.2f ms, %d tuples — %s@." s.label
        s.duration_ms s.tuples s.note)
    o.steps;
  Format.fprintf ppf "tuples moved: %d@." o.tuples_moved;
  List.iter
    (fun (p, tree) -> Format.fprintf ppf "%s:@.%a@." p Aggregate.pp (Aggregate.prune tree))
    o.distributions
