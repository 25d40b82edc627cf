type anchor = {
  source : string;
  cm_class : string;
  concept : string;
  context : string list;
}

type t = anchor list  (* small: linear scans are fine and keep it simple *)

let empty = []

let add t ~source ~cm_class ~concept ?(context = []) () =
  let a = { source; cm_class; concept; context } in
  if List.mem a t then t else a :: t

let remove_source t s = List.filter (fun a -> not (String.equal a.source s)) t

let anchors t = List.rev t

let sources t =
  List.map (fun a -> a.source) t |> List.sort_uniq String.compare

let anchors_of_source t s =
  List.filter (fun a -> String.equal a.source s) (anchors t)

let concepts_of t ~source ~cm_class =
  List.filter_map
    (fun a ->
      if String.equal a.source source && String.equal a.cm_class cm_class then
        Some a.concept
      else None)
    t
  |> List.sort_uniq String.compare

let covering dm t concept =
  let below = Closure.descendants dm concept in
  List.filter (fun a -> List.mem a.concept below) t

let sources_at dm t ~concept =
  covering dm t concept
  |> List.map (fun a -> a.source)
  |> List.sort_uniq String.compare

let sources_for dm t ~concepts =
  List.concat_map (fun c -> sources_at dm t ~concept:c) concepts
  |> List.sort_uniq String.compare

(* A context concept's traversal region is Region.downward's members,
   read through Closure to keep Index below Region in the module
   order. *)
let context_compatible dm a query_concept =
  a.context = []
  || List.exists
       (fun ctx ->
         List.mem query_concept (Closure.region dm ctx)
         || String.equal ctx query_concept)
       a.context

let sources_for_pairs dm t ~pairs =
  List.concat_map
    (fun (neuron, compartment) ->
      let covering_either =
        covering dm t compartment @ covering dm t neuron
      in
      List.filter_map
        (fun a ->
          if context_compatible dm a neuron then Some a.source else None)
        covering_either)
    pairs
  |> List.sort_uniq String.compare

let classes_at dm t ~source ~concept =
  covering dm t concept
  |> List.filter_map (fun a ->
         if String.equal a.source source then Some a.cm_class else None)
  |> List.sort_uniq String.compare

let anchored_concepts t ~source =
  List.filter_map
    (fun a -> if String.equal a.source source then Some a.concept else None)
    t
  |> List.sort_uniq String.compare

let coverage dm t ~concept =
  covering dm t concept
  |> List.map (fun a -> (a.source, a.cm_class))
  |> List.sort_uniq compare

let pp ppf t =
  List.iter
    (fun a ->
      Format.fprintf ppf "%s.%s @@ %s%s@." a.source a.cm_class a.concept
        (match a.context with
        | [] -> ""
        | ctx -> " [" ^ String.concat ", " ctx ^ "]"))
    (anchors t)
