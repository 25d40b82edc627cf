type t = { root : string; members : string list }

let downward dm ?role ~root () = { root; members = Closure.region ?role dm root }

let covers region cs = List.for_all (fun c -> List.mem c region.members) cs

let of_concepts dm ?role cs =
  (* Prefer the isa-lub; when the concepts share no ancestor (or the
     lub's part-of region misses some of them), fall back to the
     tightest traversal root: the concept whose downward region covers
     all of them and is smallest. Section 5 only needs "a reasonable
     root for the neuron-compartment pairs". *)
  let region = Closure.region ?role dm in
  let covering root =
    let r = { root; members = region root } in
    if covers r cs then Some r else None
  in
  let from_lub = Option.bind (Lub.lub_unique dm cs) covering in
  match from_lub with
  | Some r -> Some r
  | None ->
    Dmap.concepts dm
    |> List.filter_map covering
    |> List.sort (fun a b ->
           compare
             (List.length a.members, a.root)
             (List.length b.members, b.root))
    |> function
    | r :: _ -> Some r
    | [] -> None

let correspondence dm index ?role ~source1 ~source2 () =
  let c1 = Index.anchored_concepts index ~source:source1 in
  let c2 = Index.anchored_concepts index ~source:source2 in
  if c1 = [] || c2 = [] then None
  else
    match of_concepts dm ?role (c1 @ c2) with
    | None -> None
    | Some region ->
      (* Keep concepts that carry data of either source, plus those on
         the traversal frontier (members whose subtree contains an
         anchor). *)
      let anchored = c1 @ c2 in
      let keep m =
        List.exists
          (fun a -> List.mem a (Closure.descendants dm m) || List.mem m (Closure.descendants dm a))
          anchored
        || List.exists (fun a -> String.equal a m) anchored
      in
      Some { region with members = List.filter keep region.members }

let restrict t ~to_ =
  { t with members = List.filter (fun m -> List.mem m to_) t.members }

let mem t c = List.mem c t.members
let size t = List.length t.members

let pp ppf t =
  Format.fprintf ppf "region(%s): {%s}" t.root (String.concat ", " t.members)
