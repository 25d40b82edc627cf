(* F1 — Figure 1: the SYNAPSE+NCMIR domain map.
   Reproduce the figure's content from the Example 1 DL statements,
   verify the paper's narrative inferences, then sweep domain-map size
   to show closure costs scale and that has_a_star stays far smaller
   than its transitive closure ("it would be wasteful to compute the
   much larger tc(has_a_star)").

   F3 — Figure 3: dynamic registration of MyNeuron / MyDendrite.
   Verify the derived knowledge the paper states, then show that
   incremental registration cost is independent of domain-map size. *)

open Kind
module Dmap = Domain_map.Dmap
module Closure = Domain_map.Closure
module Register = Domain_map.Register

let f1 () =
  Util.header "F1  Figure 1: domain map for SYNAPSE and NCMIR";
  let dm = Neuro.Anatom.fig1 in
  let nodes, edges = Dmap.size dm in
  Util.note "built from the paper's DL statements: %d nodes, %d edges" nodes edges;
  (* the narrative inferences of Example 1 *)
  let isa = Closure.isa_tc dm in
  let star = Closure.has_a_star dm in
  let contains = Closure.role_dc dm ~role:"contains" in
  let checks =
    [
      ("purkinje_cell isa* neuron", List.mem ("purkinje_cell", "neuron") isa);
      ("pyramidal_cell isa* neuron", List.mem ("pyramidal_cell", "neuron") isa);
      ( "spine isa* ion_regulating_component",
        List.mem ("spine", "ion_regulating_component") isa );
      ("purkinje_cell has* spine", List.mem ("purkinje_cell", "spine") star);
      ("dendrite has* branch", List.mem ("dendrite", "branch") star);
      ( "spine contains* ion_binding_protein",
        List.mem ("spine", "ion_binding_protein") contains );
      ( "ion_binding_protein isa* protein",
        List.mem ("ion_binding_protein", "protein") isa );
    ]
  in
  Util.table ~columns:[ "inference (paper narrative)"; "derived" ]
    (List.map (fun (l, b) -> [ l; string_of_bool b ]) checks);
  (* scaling sweep *)
  print_newline ();
  Util.note "closure cost sweep over synthetic anatomies (seed 11):";
  let rows =
    List.map
      (fun n ->
        let fresh () = Neuro.Anatom.sprawl ~concepts:n ~seed:11 in
        let dm = fresh () in
        let _, e = Dmap.size dm in
        (* closures are memoised per map value: every repetition gets a
           fresh one, so it times the computation, not a memo hit *)
        let ms_isa =
          Util.time_median_fresh fresh (fun dm -> ignore (Closure.isa_tc dm))
        in
        let ms_star =
          Util.time_median_fresh fresh (fun dm -> ignore (Closure.has_a_star dm))
        in
        let star = Closure.has_a_star dm in
        let tc_star = Closure.tc star in
        [
          Util.fint n;
          Util.fint e;
          Util.fms ms_isa;
          Util.fms ms_star;
          Util.fint (List.length star);
          Util.fint (List.length tc_star);
          Printf.sprintf "%.1fx"
            (float_of_int (List.length tc_star)
            /. float_of_int (max 1 (List.length star)));
        ])
      [ 50; 100; 200; 400; 800 ]
  in
  Util.table
    ~columns:
      [
        "concepts"; "edges"; "tc(isa) ms"; "has_a_star ms"; "|has_a_star|";
        "|tc(has_a_star)|"; "blowup";
      ]
    rows;
  Util.note
    "shape check: |tc(has_a_star)| >> |has_a_star| — the paper's reason for";
  Util.note "keeping the closure non-transitive and traversing direct links."

let f3 () =
  Util.header "F3  Figure 3: registering MyNeuron and MyDendrite";
  let dm = Neuro.Anatom.fig3_base in
  (match Register.register dm Neuro.Anatom.fig3_registration with
  | Error e -> Util.note "registration FAILED: %s" e
  | Ok out ->
    let dm' = out.Register.dmap in
    let proj = (Dmap.role_links dm' "proj").Dmap.definite in
    let poss = (Dmap.role_links dm' "proj").Dmap.possible in
    let checks =
      [
        ( "my_neuron isa* medium_spiny_neuron",
          List.mem "medium_spiny_neuron" (Closure.ancestors dm' "my_neuron") );
        ( "my_neuron definitely projects to GPE (new knowledge)",
          List.mem ("my_neuron", "globus_pallidus_external") proj );
        ( "medium_spiny_neuron only possibly projects (OR node)",
          List.mem ("medium_spiny_neuron", "globus_pallidus_external") poss
          && not (List.exists (fun (a, _) -> a = "medium_spiny_neuron") proj) );
        ( "my_dendrite isa* dendrite",
          List.mem "dendrite" (Closure.ancestors dm' "my_dendrite") );
      ]
    in
    Util.table ~columns:[ "derived knowledge (paper narrative)"; "holds" ]
      (List.map (fun (l, b) -> [ l; string_of_bool b ]) checks));
  (* incremental registration vs full rebuild, as the map grows: the
     structural merge must stay flat; the optional satisfiability guard
     pays one whole-map EL classification *)
  print_newline ();
  Util.note "registration cost vs domain-map size:";
  let rows =
    List.map
      (fun n ->
        let big =
          Dmap.merge (Neuro.Anatom.sprawl ~concepts:n ~seed:13) Neuro.Anatom.fig3_base
        in
        let ms_merge =
          Util.time_median (fun () ->
              ignore (Register.register ~guard:false big Neuro.Anatom.fig3_registration))
        in
        let ms_guarded =
          Util.time_median (fun () ->
              ignore (Register.register big Neuro.Anatom.fig3_registration))
        in
        let ms_rebuild =
          Util.time_median (fun () ->
              ignore (Dmap.of_axioms (Dmap.to_axioms big @ Neuro.Anatom.fig3_registration)))
        in
        [ Util.fint n; Util.fms ms_merge; Util.fms ms_guarded; Util.fms ms_rebuild ])
      [ 50; 100; 200; 400; 800 ]
  in
  Util.table
    ~columns:
      [ "map concepts"; "merge ms"; "merge+guard ms"; "axiom rebuild ms" ]
    rows;
  Util.note "shape check: the structural merge stays flat; the EL guard grows";
  Util.note "polynomially with the map (Prop 1: full reasoning is optional)."
