(* Bechamel micro-benchmarks for the hot paths under every experiment:
   unification, body solving, closure computation, subsumption, XML
   parsing, and the end-to-end Section 5 plan. One Test.make per table
   of DESIGN.md's experiment index, grouped in a single run. *)

open Bechamel
open Toolkit
open Kind

let v = Logic.Term.var
let s = Logic.Term.sym

let t_unify =
  let t1 = Logic.Term.app "f" [ v "X"; Logic.Term.app "g" [ v "Y"; s "a" ]; v "Z" ] in
  let t2 = Logic.Term.app "f" [ s "b"; Logic.Term.app "g" [ s "c"; v "W" ]; s "d" ] in
  Test.make ~name:"T1: unify f/3 terms"
    (Staged.stage (fun () -> ignore (Logic.Unify.unify t1 t2)))

let t_tc =
  let p =
    Datalog.Program.make_exn
      ([
         Logic.Rule.make
           (Logic.Atom.make "tc" [ v "X"; v "Y" ])
           [ Logic.Literal.pos "e" [ v "X"; v "Y" ] ];
         Logic.Rule.make
           (Logic.Atom.make "tc" [ v "X"; v "Y" ])
           [ Logic.Literal.pos "tc" [ v "X"; v "Z" ]; Logic.Literal.pos "e" [ v "Z"; v "Y" ] ];
       ]
      @ List.init 64 (fun k ->
            Logic.Rule.fact
              (Logic.Atom.make "e"
                 [ s (Printf.sprintf "n%d" k); s (Printf.sprintf "n%d" (k + 1)) ])))
  in
  Test.make ~name:"A1: tc of a 64-chain (semi-naive)"
    (Staged.stage (fun () ->
         ignore (Datalog.Engine.materialize p (Datalog.Database.create ()))))

(* Domain-map closures are memoised per map value. [fresh dm] is a new
   value with the same closures (one isolated concept more, ~0.2 µs), so
   a run that takes it pays for computing them, as every call did before
   the memo. *)
let fresh dm = Domain_map.Dmap.add_concept dm "micro_fresh"

let t_closure =
  let dm = Neuro.Anatom.sprawl ~concepts:200 ~seed:21 in
  Test.make ~name:"F1: has_a_star on a 200-concept map (fresh map)"
    (Staged.stage (fun () -> ignore (Domain_map.Closure.has_a_star (fresh dm))))

let t_lub =
  let dm = Neuro.Anatom.full in
  Test.make ~name:"Q5: lub of {purkinje_cell, spine} (fresh map)"
    (Staged.stage (fun () ->
         ignore (Domain_map.Lub.lub_unique (fresh dm) [ "purkinje_cell"; "spine" ])))

let t_subsume =
  let tbox = Domain_map.Dmap.to_axioms Neuro.Anatom.fig1 in
  Test.make ~name:"P1: EL classify Figure 1"
    (Staged.stage (fun () -> ignore (Dl.Reason.classify tbox)))

let t_xml =
  let doc =
    Xmlkit.Print.to_string
      (Wrapper.Source.export_xml
         (Neuro.Sources.ncmir { Neuro.Sources.seed = 1; scale = 20 }))
  in
  Test.make ~name:"A2: parse NCMIR wire document"
    (Staged.stage (fun () -> ignore (Xmlkit.Parse.parse_exn doc)))

let t_q5 =
  let med = Neuro.Sources.standard_mediator { Neuro.Sources.seed = 1; scale = 20 } in
  Test.make ~name:"Q5: four-step plan end to end"
    (Staged.stage (fun () ->
         ignore
           (Mediation.Section5.calcium_binding_query med ~organism:"rat"
              ~transmitting_compartment:"parallel_fiber" ~ion:"calcium" ())))

let t_ic =
  let sg = Flogic.Signature.declare "has" [ "whole"; "part" ] Flogic.Signature.empty in
  let rules =
    Gcm.Constraints.cardinality ~sg ~rel:"has" ~counted:"part" ~per:[ "whole" ]
      ~max_count:2 ()
    @ List.init 100 (fun k ->
          Flogic.Molecule.fact
            (Flogic.Molecule.Rel_val
               ( "has",
                 [
                   ("whole", s (Printf.sprintf "n%d" (k mod 40)));
                   ("part", s (Printf.sprintf "p%d" k));
                 ] )))
  in
  Test.make ~name:"E3: cardinality audit of 100 tuples"
    (Staged.stage (fun () ->
         ignore (Flogic.Fl_program.run (Flogic.Fl_program.make ~signature:sg rules))))

let all_tests =
  [ t_unify; t_tc; t_closure; t_lub; t_subsume; t_xml; t_q5; t_ic ]

let run () =
  Util.header "Micro-benchmarks (Bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let analysed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> est
              | _ -> nan
            in
            [ name; Printf.sprintf "%.0f" ns ] :: acc)
          analysed []
        |> List.concat)
      all_tests
  in
  Util.table ~columns:[ "benchmark"; "ns/run" ] rows
