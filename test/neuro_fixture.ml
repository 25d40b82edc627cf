(* The default-configuration Neuro federation of the rebuild-churn
   workload (seed 1, scale 20: 16,121 facts) compiled to Datalog, and
   the same program with one real [has] witness for a neuron: a neuron
   with a real compartment, so the guard [not dl_sat_k(X)] of the
   domain-map edge neuron ⊑ ∃has.compartment fires on it. Built, and
   their well-founded models computed, once for every suite that
   compares against them. *)

let compile fp =
  match Flogic.Fl_program.compile fp with
  | Ok p -> p
  | Error e -> failwith e

let federation =
  lazy
    (Mediation.Mediator.program
       (Neuro.Sources.standard_mediator { Neuro.Sources.seed = 1; scale = 20 }))

let program = lazy (compile (Lazy.force federation))

let witness_neuron = Logic.Term.sym "fixture_neuron"
let witness_compartment = Logic.Term.sym "fixture_compartment"

let with_witness =
  lazy
    (compile
       (Flogic.Fl_program.add_facts (Lazy.force federation)
          [
            Flogic.Molecule.Isa (witness_neuron, Logic.Term.sym "neuron");
            Flogic.Molecule.Isa
              (witness_compartment, Logic.Term.sym "compartment");
            Flogic.Molecule.pred "has" [ witness_neuron; witness_compartment ];
          ]))

let wellfounded p =
  lazy
    (Datalog.Wellfounded.compute (Lazy.force p) (Datalog.Database.create ()))

let program_wf = wellfounded program
let with_witness_wf = wellfounded with_witness
