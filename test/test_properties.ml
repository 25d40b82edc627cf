(* Cross-cutting property tests: closure algebra, lub laws, semantic
   index monotonicity, EL monotonicity, aggregate semantics against a
   reference implementation. *)

open Domain_map

let gen_dmap =
  (* isa edges only point from higher to lower indices, so the isa
     hierarchy is a DAG — the shape Example 2's antisymmetry constraint
     enforces on real domain maps. Role edges are unconstrained. *)
  let open QCheck.Gen in
  let idx = int_bound 9 in
  let name = Printf.sprintf "c%d" in
  let edge =
    oneof
      [
        map2 (fun a b -> `Isa (a, b)) idx idx;
        map2 (fun a b -> `Has (name a, name b)) idx idx;
      ]
  in
  map
    (fun edges ->
      List.fold_left
        (fun dm e ->
          match e with
          | `Isa (a, b) when a > b -> Dmap.isa dm (name a) (name b)
          | `Isa _ -> dm
          | `Has (a, b) -> Dmap.ex dm ~role:"has" a b)
        Dmap.empty edges)
    (list_size (int_range 1 20) edge)

let arb_dmap = QCheck.make ~print:(Format.asprintf "%a" Dmap.pp) gen_dmap

let prop_tc_transitive_superset =
  QCheck.Test.make ~name:"tc is transitive and contains the base" ~count:80
    arb_dmap
    (fun dm ->
      let base = (Dmap.isa_links dm).Dmap.definite in
      let tc = Closure.tc base in
      List.for_all (fun (a, b) -> a = b || List.mem (a, b) tc) base
      && List.for_all
           (fun (a, b) ->
             List.for_all
               (fun (b', c) -> b <> b' || a = c || List.mem (a, c) tc)
               tc)
           tc)

let prop_dc_contains_base_and_down =
  QCheck.Test.make ~name:"dc ⊇ base ∪ dc_down" ~count:80 arb_dmap
    (fun dm ->
      let isa = Closure.isa_tc dm in
      let base = (Dmap.role_links dm "has").Dmap.definite in
      let dc = Closure.dc ~isa_tc:isa base in
      let dc_down = Closure.dc_down ~isa_tc:isa base in
      List.for_all (fun p -> List.mem p dc) base
      && List.for_all (fun p -> List.mem p dc) dc_down)

let prop_traversal_region_contains_descendants =
  QCheck.Test.make ~name:"traversal region contains isa descendants" ~count:60
    arb_dmap
    (fun dm ->
      List.for_all
        (fun c ->
          let region = Closure.reachable (Closure.traversal dm) c in
          List.for_all (fun d -> List.mem d region) (Closure.descendants dm c))
        (Dmap.concepts dm))

let prop_ancestors_descendants_dual =
  QCheck.Test.make ~name:"a ∈ ancestors(b) iff b ∈ descendants(a)" ~count:60
    arb_dmap
    (fun dm ->
      let cs = Dmap.concepts dm in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.mem a (Closure.ancestors dm b)
              = List.mem b (Closure.descendants dm a))
            cs)
        cs)

let prop_lub_laws =
  QCheck.Test.make ~name:"lub: symmetric, common, minimal, idempotent" ~count:60
    arb_dmap
    (fun dm ->
      let cs = Dmap.concepts dm in
      List.for_all
        (fun a ->
          (* lub of a singleton is a itself *)
          Lub.lub dm [ a ] = [ a ]
          && List.for_all
               (fun b ->
                 let l1 = Lub.lub dm [ a; b ] in
                 let l2 = Lub.lub dm [ b; a ] in
                 List.sort compare l1 = List.sort compare l2
                 && List.for_all
                      (fun u ->
                        List.mem u (Closure.ancestors dm a)
                        && List.mem u (Closure.ancestors dm b))
                      l1)
               cs)
        cs)

let prop_index_monotone =
  QCheck.Test.make ~name:"adding anchors only grows source selections" ~count:60
    QCheck.(pair arb_dmap (small_list (pair (int_bound 9) (int_bound 9))))
    (fun (dm, anchor_specs) ->
      let concepts = Dmap.concepts dm in
      if concepts = [] then true
      else begin
        let concept_of i = List.nth concepts (i mod List.length concepts) in
        let idx =
          List.fold_left
            (fun idx (si, ci) ->
              Index.add idx
                ~source:(Printf.sprintf "S%d" (si mod 3))
                ~cm_class:"c" ~concept:(concept_of ci) ())
            Index.empty anchor_specs
        in
        let idx' =
          Index.add idx ~source:"EXTRA" ~cm_class:"c"
            ~concept:(concept_of 0) ()
        in
        List.for_all
          (fun c ->
            let before = Index.sources_at dm idx ~concept:c in
            let after = Index.sources_at dm idx' ~concept:c in
            List.for_all (fun s -> List.mem s after) before)
          concepts
      end)

let prop_el_monotone =
  (* EL is monotone: adding axioms never removes subsumptions. *)
  let gen_axioms =
    let open QCheck.Gen in
    let name = map (Printf.sprintf "k%d") (int_bound 7) in
    list_size (int_range 1 8)
      (oneof
         [
           map2
             (fun a b -> Dl.Concept.subsumes (Dl.Concept.name a) (Dl.Concept.name b))
             name name;
           map3
             (fun a r b ->
               Dl.Concept.subsumes (Dl.Concept.name a)
                 (Dl.Concept.exists r (Dl.Concept.name b)))
             name (oneofl [ "r"; "s" ]) name;
         ])
  in
  QCheck.Test.make ~name:"EL classification is monotone" ~count:60
    (QCheck.pair (QCheck.make gen_axioms) (QCheck.make gen_axioms))
    (fun (t1, extra) ->
      match Dl.Reason.classify t1, Dl.Reason.classify (t1 @ extra) with
      | Ok r1, Ok r2 ->
        List.for_all
          (fun a ->
            List.for_all
              (fun b -> Dl.Reason.subsumes r2 a b)
              (Dl.Reason.subsumers r1 a))
          (Dl.Reason.concept_names r1)
      | _ -> false)

(* Aggregates: engine count/sum agree with a reference fold. *)
let prop_aggregate_reference =
  let open Logic in
  QCheck.Test.make ~name:"engine aggregates match reference" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (int_bound 4) (int_bound 9)))
    (fun rows ->
      let facts =
        List.sort_uniq compare rows
        |> List.map (fun (g, v) ->
               Rule.fact
                 (Atom.make "m"
                    [ Term.sym (Printf.sprintf "g%d" g); Term.int v ]))
      in
      let rules =
        [
          Rule.make
            (Atom.make "cnt" [ Term.var "G"; Term.var "N" ])
            [
              Literal.count ~target:(Term.var "V") ~group_by:[ Term.var "G" ]
                ~result:(Term.var "N")
                [ Atom.make "m" [ Term.var "G"; Term.var "V" ] ];
            ];
          Rule.make
            (Atom.make "total" [ Term.var "G"; Term.var "N" ])
            [
              Literal.agg Literal.Sum ~target:(Term.var "V")
                ~group_by:[ Term.var "G" ] ~result:(Term.var "N")
                [ Atom.make "m" [ Term.var "G"; Term.var "V" ] ];
            ];
        ]
      in
      let db =
        Datalog.Engine.materialize
          (Datalog.Program.make_exn (facts @ rules))
          (Datalog.Database.create ())
      in
      let dedup = List.sort_uniq compare rows in
      let groups = List.sort_uniq compare (List.map fst dedup) in
      List.for_all
        (fun g ->
          let vs = List.filter_map (fun (g', v) -> if g = g' then Some v else None) dedup in
          let gname = Term.sym (Printf.sprintf "g%d" g) in
          Datalog.Database.mem db
            (Atom.make "cnt" [ gname; Term.int (List.length vs) ])
          && Datalog.Database.mem db
               (Atom.make "total"
                  [ gname; Term.float (float_of_int (List.fold_left ( + ) 0 vs)) ]))
        groups)

(* Relation against a reference set: random interleavings of
   add/remove/lookup/select/settle must agree with a list model at
   every step. Lookups force the lazy per-position indexes into
   existence, so the removes and adds that follow them exercise the
   in-place index maintenance (a remove used to invalidate; now it
   edits buckets), and a settle replays the pending insertion log. *)
let prop_relation_model =
  let open QCheck in
  let gen_op =
    Gen.(
      oneof
        [
          map2 (fun i j -> `Add (i, j)) (int_bound 5) (int_bound 5);
          map2 (fun i j -> `Remove (i, j)) (int_bound 5) (int_bound 5);
          map2 (fun pos k -> `Lookup (pos, k)) (int_bound 1) (int_bound 5);
          map2 (fun k w -> `Select (k, w)) (int_bound 5) (int_bound 2);
          return `Settle;
        ])
  in
  Test.make ~name:"Relation agrees with a reference set under interleaved ops"
    ~count:300
    (make Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let module R = Datalog.Relation in
      let open Logic in
      let tup i j = [ Term.sym (Printf.sprintf "a%d" i); Term.int j ] in
      let r = R.create () in
      let model = ref [] in
      let sorted l = List.sort Datalog.Tuple.compare l in
      let matches pattern t =
        match Unify.matches_list ~patterns:pattern t with
        | Some _ -> true
        | None -> false
      in
      List.for_all
        (fun op ->
          match op with
          | `Add (i, j) ->
            let t = tup i j in
            let fresh = not (List.mem t !model) in
            if fresh then model := t :: !model;
            R.add r t = fresh
          | `Remove (i, j) ->
            let t = tup i j in
            let present = List.mem t !model in
            model := List.filter (fun x -> x <> t) !model;
            R.remove r t = present
          | `Lookup (pos, k) ->
            let key =
              if pos = 0 then Term.sym (Printf.sprintf "a%d" k) else Term.int k
            in
            sorted (R.lookup r ~pos key)
            = sorted (List.filter (fun t -> List.nth t pos = key) !model)
          | `Select (k, which) ->
            let pattern =
              match which with
              | 0 -> [ Term.sym (Printf.sprintf "a%d" k); Term.var "V" ]
              | 1 -> [ Term.var "V"; Term.int k ]
              | _ -> [ Term.var "V"; Term.var "V" ] (* repeated var: no match *)
            in
            sorted (R.select r ~pattern)
            = sorted (List.filter (matches pattern) !model)
          | `Settle ->
            (* catch the built indexes up; later ops check that lookups
               over them still agree with the model *)
            R.settle r;
            true)
        ops
      && R.cardinal r = List.length !model
      && sorted (R.to_list r) = sorted !model)

(* Database set operations on packed rows against sorted fact lists.
   A database is built from adds, removes and bare touches of a
   relation, so touched-but-emptied relations occur on both sides; the
   second database is either drawn independently or the first one with
   a few more ops (often the same facts, reached another way). *)
let prop_database_set_ops =
  let open QCheck in
  let module D = Datalog.Database in
  let open Logic in
  let gen_op =
    Gen.(
      oneof
        [
          map3
            (fun p i j -> `Add (p, i, j))
            (int_bound 2) (int_bound 2) (int_bound 2);
          map3
            (fun p i j -> `Remove (p, i, j))
            (int_bound 2) (int_bound 2) (int_bound 2);
          map (fun p -> `Touch p) (int_bound 2);
        ])
  in
  let gen_ops n = Gen.(list_size (int_range 0 n) gen_op) in
  let gen_pair =
    Gen.(
      gen_ops 16 >>= fun a ->
      oneof
        [
          map (fun b -> (a, b)) (gen_ops 16);
          map (fun extra -> (a, a @ extra)) (gen_ops 3);
        ])
  in
  let show_op = function
    | `Add (p, i, j) -> Printf.sprintf "+%d(%d,%d)" p i j
    | `Remove (p, i, j) -> Printf.sprintf "-%d(%d,%d)" p i j
    | `Touch p -> Printf.sprintf "touch %d" p
  in
  let show ops = String.concat " " (List.map show_op ops) in
  (* predicate 2 is unary, so arities differ across relations *)
  let fact p i j =
    match p with
    | 2 -> Atom.make "r" [ Term.int i ]
    | _ ->
      Atom.make
        (if p = 0 then "p" else "q")
        [ Term.sym (Printf.sprintf "c%d" i); Term.int j ]
  in
  let build ops =
    let db = D.create () in
    List.iter
      (function
        | `Add (p, i, j) -> ignore (D.add_fact db (fact p i j))
        | `Remove (p, i, j) -> ignore (D.remove_fact db (fact p i j))
        | `Touch p -> ignore (D.relation db (fact p 0 0).Atom.pred))
      ops;
    db
  in
  Test.make ~name:"Database equal/diff agree with sorted fact lists"
    ~count:300
    (make ~print:(fun (a, b) -> show a ^ " | " ^ show b) gen_pair)
    (fun (ops_a, ops_b) ->
      let a = build ops_a and b = build ops_b in
      let fa = D.all_facts a and fb = D.all_facts b in
      let same = List.equal Atom.equal in
      let minus xs ys =
        List.filter (fun x -> not (List.exists (Atom.equal x) ys)) xs
      in
      D.equal a b = same fa fb
      && D.equal b a = same fa fb
      && same (D.all_facts (D.diff a b)) (minus fa fb)
      && same (D.all_facts (D.diff b a)) (minus fb fa))

(* The well-founded model of win(X) :- move(X,Y), not win(Y) against
   retrograde game labelling on random move graphs (self-loops and
   cycles allowed): a node with a move to a lost node is won, a node
   whose moves all reach won nodes (none included) is lost, and every
   node the labelling never settles is drawn. Won must be exactly the
   true win facts, drawn exactly the undefined ones, and
   [Engine.materialize] must raise [Undefined_atoms] iff a node is
   drawn. *)
let prop_wellfounded_game =
  let open QCheck in
  let open Logic in
  let gen =
    Gen.(
      int_range 2 12 >>= fun n ->
      let node = int_bound (n - 1) in
      map
        (fun es -> (n, List.sort_uniq compare es))
        (list_size (int_bound (3 * n)) (pair node node)))
  in
  let print (n, es) =
    Printf.sprintf "%d nodes: %s" n
      (String.concat " "
         (List.map (fun (x, y) -> Printf.sprintf "%d->%d" x y) es))
  in
  let node i = Term.sym (Printf.sprintf "n%d" i) in
  let win i = Atom.make "win" [ node i ] in
  Test.make ~name:"well-founded win-move matches retrograde labelling"
    ~count:200
    (make ~print gen)
    (fun (n, es) ->
      (* 1 = won, -1 = lost, 0 = not labelled yet *)
      let label = Array.make n 0 in
      let moves x =
        List.filter_map (fun (a, b) -> if a = x then Some b else None) es
      in
      let changed = ref true in
      while !changed do
        changed := false;
        for x = 0 to n - 1 do
          if label.(x) = 0 then begin
            let ys = moves x in
            let l =
              if List.exists (fun y -> label.(y) = -1) ys then 1
              else if List.for_all (fun y -> label.(y) = 1) ys then -1
              else 0
            in
            if l <> 0 then begin
              label.(x) <- l;
              changed := true
            end
          end
        done
      done;
      let nodes_with l =
        List.filter (fun x -> label.(x) = l) (List.init n Fun.id)
      in
      let won = nodes_with 1 and drawn = nodes_with 0 in
      let expect xs = List.sort Atom.compare (List.map win xs) in
      let p =
        Datalog.Program.make_exn
          (List.map
             (fun (x, y) -> Rule.fact (Atom.make "move" [ node x; node y ]))
             es
          @ [
              Rule.make
                (Atom.make "win" [ Term.var "X" ])
                [
                  Literal.pos "move" [ Term.var "X"; Term.var "Y" ];
                  Literal.neg "win" [ Term.var "Y" ];
                ];
            ])
      in
      let facts, rules = Datalog.Program.split_facts p in
      let m =
        Datalog.Wellfounded.compute rules (Datalog.Database.of_facts facts)
      in
      let module D = Datalog.Database in
      let same = List.equal Atom.equal in
      same (D.facts m.Datalog.Wellfounded.true_facts "win") (expect won)
      && same (D.all_facts m.Datalog.Wellfounded.undefined) (expect drawn)
      &&
      match Datalog.Engine.materialize p (D.create ()) with
      | db -> drawn = [] && same (D.facts db "win") (expect won)
      | exception Datalog.Engine.Undefined_atoms k ->
        drawn <> [] && k = List.length drawn)

(* One explicit seed threads every generator here; KIND_QCHECK_SEED
   replays a failing run exactly (the suite name carries the seed). *)
let qcheck_seed =
  match Sys.getenv_opt "KIND_QCHECK_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

let suites =
  [
    ( Printf.sprintf "properties [seed %d]" qcheck_seed,
      List.map
        (QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| qcheck_seed |]))
        [
          prop_tc_transitive_superset;
          prop_dc_contains_base_and_down;
          prop_traversal_region_contains_descendants;
          prop_ancestors_descendants_dual;
          prop_lub_laws;
          prop_index_monotone;
          prop_el_monotone;
          prop_aggregate_reference;
          prop_relation_model;
          prop_database_set_ops;
          prop_wellfounded_game;
        ] );
  ]
