module Stratify = Datalog.Stratify
module Program = Datalog.Program
module Rule = Logic.Rule
module D = Diagnostic

let pass = "stratification"

module SM = Map.Make (String)

(* Shortest path [from] -> [to_] over the dependency graph, as an edge
   list; BFS with parent-edge reconstruction. *)
let path edges ~src ~dst =
  let adj =
    List.fold_left
      (fun m (e : Stratify.edge) ->
        SM.update e.Stratify.from_pred
          (fun es -> Some (e :: Option.value es ~default:[]))
          m)
      SM.empty edges
  in
  if String.equal src dst then Some []
  else begin
    let parent : (string, Stratify.edge) Hashtbl.t = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add src queue;
    Hashtbl.add parent src { Stratify.from_pred = src; to_pred = src; nonmono = false };
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (e : Stratify.edge) ->
          if (not !found) && not (Hashtbl.mem parent e.Stratify.to_pred) then begin
            Hashtbl.add parent e.Stratify.to_pred e;
            if String.equal e.Stratify.to_pred dst then found := true
            else Queue.add e.Stratify.to_pred queue
          end)
        (Option.value (SM.find_opt u adj) ~default:[])
    done;
    if not !found then None
    else begin
      let rec walk v acc =
        if String.equal v src then acc
        else
          let e = Hashtbl.find parent v in
          walk e.Stratify.from_pred (e :: acc)
      in
      Some (walk dst [])
    end
  end

let negative_cycle p =
  let edges = Stratify.dependency_edges p in
  let nonmono = List.filter (fun (e : Stratify.edge) -> e.Stratify.nonmono) edges in
  (* close each nonmonotonic edge u -¬-> v with a shortest path v ->* u;
     keep the shortest witness overall so the report stays readable *)
  List.fold_left
    (fun best (e : Stratify.edge) ->
      match path edges ~src:e.Stratify.to_pred ~dst:e.Stratify.from_pred with
      | None -> best
      | Some back ->
        let cycle = e :: back in
        (match best with
        | Some b when List.length b <= List.length cycle -> best
        | _ -> Some cycle))
    None nonmono

let pp_cycle ppf cycle =
  List.iteri
    (fun i (e : Stratify.edge) ->
      if i = 0 then Format.pp_print_string ppf e.Stratify.from_pred;
      Format.fprintf ppf " -%s-> %s"
        (if e.Stratify.nonmono then "¬" else "")
        e.Stratify.to_pred)
    cycle

let default_loc i r =
  D.Rule { index = i; text = Rule.to_string r; pos = None }

let lint ?(loc = default_loc) p =
  match negative_cycle p with
  | None -> []
  | Some cycle ->
    let first = List.hd cycle in
    let cycle_preds =
      List.map (fun (e : Stratify.edge) -> e.Stratify.from_pred) cycle
    in
    let on_cycle q = List.mem q cycle_preds in
    let cycle_edge (q, nonmono) =
      List.exists
        (fun (e : Stratify.edge) ->
          String.equal e.Stratify.to_pred q && e.Stratify.nonmono = nonmono)
        cycle
    in
    let head =
      D.make ~severity:D.Warning ~pass ~code:"negative-cycle"
        ~location:
          (D.Edge
             {
               src = first.Stratify.from_pred;
               dst = first.Stratify.to_pred;
               label = "¬";
             })
        (Format.asprintf
           "predicates depend on themselves through negation/aggregation: %a"
           pp_cycle cycle)
        ~hint:
          "the engine falls back to the well-founded semantics; \
           incremental maintenance and the result cache are disabled for \
           this program"
    in
    let rule_diags =
      List.concat
        (List.mapi
           (fun i (r : Rule.t) ->
             if
               on_cycle (Rule.head_pred r)
               && List.exists cycle_edge (Rule.body_predicates r)
             then
               [
                 D.make ~severity:D.Warning ~pass ~code:"unmaintainable-rule"
                   ~location:(loc i r)
                   (Format.asprintf
                      "this rule closes the nonmonotonic cycle %a; \
                       Datalog.Maintain refuses the program, so every \
                       update becomes a full rebuild"
                      pp_cycle cycle);
               ]
             else [])
           (Program.rules p))
    in
    head :: rule_diags
