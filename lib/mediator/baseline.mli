(** The structural (XML-level) mediation baseline.

    This is the architecture the paper argues against for multiple-world
    scenarios: wrappers still normalise syntax, but the mediator sees
    only uninterpreted structure — no conceptual models, no domain map,
    no semantic index, no capability-driven pushdown. Consequently a
    query must: contact {e every} source, ship whole classes, and join
    at the mediator on string equality; and with no domain map there is
    no lub root and no [has_a_star] rollup — the "distribution" stays a
    flat per-location table.

    The F2/Q5 benches run this side by side with {!Section5} to
    reproduce the architectural claim: the model-based mediator touches
    only the relevant sources and ships a fraction of the tuples, with
    the gap growing linearly in the number of registered sources. *)

type outcome = {
  rows : (string * string * float) list;
      (** (protein, location, amount) surviving the mediator-side join *)
  proteins : string list;
  per_location : (string * float) list;  (** flat sums, no rollup *)
  sources_contacted : string list;
  tuples_moved : int;
  duration_ms : float;  (** wall clock *)
}

val calcium_binding_query :
  ?spec:Section5.spec ->
  Mediator.t ->
  organism:string ->
  transmitting_compartment:string ->
  ion:string ->
  unit ->
  (outcome, string) result
(** Same question as {!Section5.calcium_binding_query}, answered the
    structural way. The answers (protein sets, per-location amounts)
    must agree with the model-based plan; only the cost differs. *)
