module Term = Logic.Term
module Source = Wrapper.Source
module Store = Wrapper.Store

type outcome = {
  rows : (string * string * float) list;
  proteins : string list;
  per_location : (string * float) list;
  sources_contacted : string list;
  tuples_moved : int;
  duration_ms : float;
}

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

let calcium_binding_query ?(spec = Section5.default_spec) med ~organism
    ~transmitting_compartment ~ion () =
  List.iter Source.reset_meter (Mediator.sources med);
  let t0 = Unix.gettimeofday () in
  (* Broadcast: pull every class of every source, unfiltered. *)
  let all_objects =
    List.concat_map
      (fun src ->
        List.concat_map
          (fun cls ->
            try
              List.map
                (fun o -> (cls, o))
                (Source.fetch_instances src ~cls ~selections:[])
            with Source.Unsupported _ -> [])
          (Gcm.Schema.class_names (Source.schema src)))
      (Mediator.sources med)
  in
  (* Mediator-side filtering and string joins. *)
  let nt_rows =
    List.filter_map
      (fun (cls, o) ->
        if
          String.equal cls spec.Section5.nt_class
          && List.mem organism (value_str o spec.Section5.organism_field)
          && List.mem transmitting_compartment
               (value_str o spec.Section5.trans_comp_field)
        then Some o
        else None)
      all_objects
  in
  if nt_rows = [] then
    Error
      (Printf.sprintf "no neurotransmission data for organism=%s, %s=%s"
         organism spec.Section5.trans_comp_field transmitting_compartment)
  else begin
    let locations =
      List.concat_map
        (fun o ->
          value_str o spec.Section5.recv_neuron_field
          @ value_str o spec.Section5.recv_comp_field)
        nt_rows
      |> List.sort_uniq String.compare
    in
    let binding_proteins =
      List.concat_map
        (fun (cls, o) ->
          if
            String.equal cls spec.Section5.protein_class
            && List.mem ion (value_str o spec.Section5.ion_field)
          then value_str o spec.Section5.name_field
          else [])
        all_objects
      |> List.sort_uniq String.compare
    in
    let rows =
      List.filter_map
        (fun (cls, o) ->
          if String.equal cls spec.Section5.protein_amount_class then
            match
              ( value_str o spec.Section5.protein_name_field,
                value_str o spec.Section5.location_field,
                value_float o spec.Section5.amount_field )
            with
            | p :: _, loc :: _, amount :: _
              when List.mem loc locations
                   && (binding_proteins = [] || List.mem p binding_proteins) ->
              Some (p, loc, amount)
            | _ -> None
          else None)
        all_objects
    in
    let proteins =
      List.map (fun (p, _, _) -> p) rows |> List.sort_uniq String.compare
    in
    let per_location =
      List.fold_left
        (fun acc (_, loc, amount) ->
          let prev = match List.assoc_opt loc acc with Some x -> x | None -> 0.0 in
          (loc, prev +. amount) :: List.remove_assoc loc acc)
        [] rows
      |> List.sort compare
    in
    let tuples_moved =
      List.fold_left
        (fun acc s -> acc + (Source.served s).Source.tuples)
        0 (Mediator.sources med)
    in
    Ok
      {
        rows;
        proteins;
        per_location;
        sources_contacted = List.map Source.name (Mediator.sources med);
        tuples_moved;
        duration_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
      }
  end
