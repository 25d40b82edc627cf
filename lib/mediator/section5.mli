(** The Section 5 walk-through: planning and executing

    "What is the distribution of those calcium-binding proteins that
    are found in neurons that receive signals from parallel fibers in
    rat brains?"

    The four steps of the paper's query plan, instrumented:

    + push selections (rat, parallel fiber) to the neurotransmission
      source and get bindings for the receiving neuron/compartment;
    + using the domain map, {e select sources} that have data anchored
      for those neuron/compartment pairs;
    + push the location selections to the selected sources and retrieve
      only the proteins found there (filtered to the requested ion);
    + compute the lub of the locations as the distribution root and
      evaluate the [protein_distribution] view by downward closure
      along [has_a_star].

    The mediator's {!Mediator.config} ablations change how each step
    runs (broadcast instead of index, scan+filter instead of pushdown,
    whole-map root instead of lub); the per-step reports expose the
    difference. *)

type spec = {
  nt_class : string;            (** neurotransmission class name *)
  organism_field : string;
  trans_comp_field : string;
  recv_neuron_field : string;
  recv_comp_field : string;
  protein_amount_class : string;
  protein_name_field : string;
  location_field : string;
  amount_field : string;
  protein_class : string;       (** protein metadata class *)
  name_field : string;
  ion_field : string;
}

val default_spec : spec
(** Field names matching {!Neuro}'s sources (and the paper's class
    signatures). *)

type step_report = {
  label : string;
  duration_ms : float;  (** wall clock *)
  tuples : int;      (** tuples shipped from wrappers in this step *)
  note : string;
}

type outcome = {
  locations : string list;       (** step-1 neuron/compartment bindings *)
  sources_contacted : string list;  (** step-2 selection *)
  proteins : string list;           (** step-3 result *)
  root : string option;             (** step-4 lub *)
  distributions : (string * Aggregate.tree) list;
  steps : step_report list;
  tuples_moved : int;
}

val calcium_binding_query :
  ?spec:spec ->
  Mediator.t ->
  organism:string ->
  transmitting_compartment:string ->
  ion:string ->
  unit ->
  (outcome, string) result

val protein_distribution :
  ?spec:spec ->
  Mediator.t ->
  protein:string ->
  organism:string ->
  root:string ->
  (Aggregate.tree, string) result
(** Example 4 in isolation: the mediated [protein_distribution] view
    for one protein / organism / distribution root. *)

val pp_outcome : Format.formatter -> outcome -> unit
