(* s5-read: the paper's read path on the default configuration.

   Assertion mode, so the materialization takes the well-founded
   fallback (its ~115k-fact base is built once, in set-up). The three
   labs register directly at scale 120; five distractor labs register
   over the XML wire. The closed-loop client then sends, half and half,
   Section 5 queries (parameter combinations that exist in the data)
   and FL queries drawn from seeded templates, one in three repeating
   an earlier query so it is served from the result cache. *)

open Kind
open Common

let scale = 120
let distractors = 5

let setup ~seed _k =
  let p = params ~seed ~scale in
  let med = Mediator.create Neuro.Anatom.full in
  List.iter (register_direct med)
    [ Neuro.Sources.synapse p; Neuro.Sources.ncmir p; Neuro.Sources.senselab p ];
  (* the distractors are the same five labs whatever the seed: their
     anchors are drawn from their generator's seed, and they would move
     the semantic index and the base size from seed to seed *)
  for index = 1 to distractors do
    register_wire med (Neuro.Sources.distractor (params ~seed:0 ~scale) ~index)
  done;
  ignore (materialize med);
  med

(* (organism, transmitting compartment, ion): combinations for which
   SENSELAB holds neurotransmission rows and NCMIR holds proteins. They
   take turns, as do the FL templates below, so each run sends the same
   mix whatever its seed; an odd number of each keeps the medians inside
   one combination's or template's cost instead of between two. *)
let s5_params =
  [|
    ("rat", "parallel_fiber", "calcium");
    ("mouse", "parallel_fiber", "calcium");
    ("rat", "parallel_fiber", "none");
  |]

(* Selective FL query templates over the mediated base (a few rows
   each, so the result cache stays small next to the base). The k-th
   constant of a template is its grid point (offset + k * 7919) mod size:
   distinct for every k below the grid size, so fresh queries never
   repeat by chance. Constants keep at most 5 significant digits: the
   result cache keys literals by their printed form, and floats print
   with 6 (%g), so finer constants would share a key. *)
let templates =
  [|
    (10_000, fun i -> Printf.sprintf "X : 'SYNAPSE.spine_measure', X[diameter ->> D], D > 0.9%04d" i);
    ( 80_000,
      fun i ->
        Printf.sprintf "X : 'NCMIR.protein_amount', X[protein_name ->> %s], X[amount ->> A], A > 9.%04d"
          (List.nth Neuro.Sources.proteins (i mod 8))
          (i / 8 mod 10_000) );
    (10_000, fun i -> Printf.sprintf "X : spine, X[volume ->> V], V < 0.00%04d" i);
  |]

let same_answers a b =
  a == b
  || List.length a = List.length b
     && List.for_all2
          (fun x y ->
            List.equal
              (fun (v, t) (v', t') -> String.equal v v' && Logic.Term.equal t t')
              (Logic.Subst.bindings x) (Logic.Subst.bindings y))
          a b

let phase med ~seed ~seconds (l : ledger) (acc : Layers.t) =
  let rng = Random.State.make [| seed; 5 |] in
  let lead = Stats.series () and flq = Stats.series () in
  let first = Hashtbl.create 1024 in
  let issued = ref [||] and n_issued = ref 0 in
  let remember q =
    if !n_issued = Array.length !issued then
      issued := Array.append !issued (Array.make (max 64 !n_issued) "");
    !issued.(!n_issued) <- q;
    incr n_issued
  in
  let s5_turn = ref (Random.State.int rng 3) and fl_turn = ref (Random.State.int rng 3) in
  let offsets = Array.map (fun (size, _) -> Random.State.int rng size) templates in
  let drawn = Array.make (Array.length templates) 0 in
  let next_turn turn a =
    incr turn;
    a.(!turn mod Array.length a)
  in
  let section5 () =
    let organism, transmitting_compartment, ion = next_turn s5_turn s5_params in
    let t0 = Trace.now () in
    let r =
      Trace.span "section5.query" (fun () ->
          Mediation.Section5.calcium_binding_query med ~organism ~transmitting_compartment ~ion ())
    in
    let ms = Trace.ms_since t0 in
    match r with
    | Error e -> fail l ("section5: " ^ e)
    | Ok o ->
      Stats.add lead ms;
      Stats.add acc.Layers.s5_ms ms;
      let expected =
        if ion = "calcium" then Neuro.Sources.calcium_binders
        else List.filter (fun p -> not (List.mem p Neuro.Sources.calcium_binders)) Neuro.Sources.proteins
      in
      check l
        (o.Mediation.Section5.proteins <> []
        && List.for_all (fun p -> List.mem p expected) o.Mediation.Section5.proteins)
        (Printf.sprintf "section5 %s/%s/%s returned proteins outside the %s binders" organism
           transmitting_compartment ion ion);
      acc.s5_sources <- acc.s5_sources + List.length o.Mediation.Section5.sources_contacted;
      acc.s5_tuples <- acc.s5_tuples + o.Mediation.Section5.tuples_moved;
      List.iter
        (fun src ->
          let s = Wrapper.Source.served src in
          acc.wrapper_requests <- acc.wrapper_requests + s.Wrapper.Source.requests;
          acc.wrapper_tuples <- acc.wrapper_tuples + s.Wrapper.Source.tuples)
        (Mediator.sources med)
  in
  let fl_count = ref 0 in
  let fl_query () =
    incr fl_count;
    (* every third FL query repeats an earlier one *)
    let q =
      if !n_issued > 0 && !fl_count mod 3 = 0 then !issued.(Random.State.int rng !n_issued)
      else begin
        let t = !fl_turn mod Array.length templates in
        incr fl_turn;
        let size, make = templates.(t) in
        drawn.(t) <- drawn.(t) + 1;
        make ((offsets.(t) + (drawn.(t) * 7919)) mod size)
      end
    in
    let r, ms, hit = query_classified med q in
    match r with
    | Error e -> fail l ("query " ^ q ^ ": " ^ e)
    | Ok answers -> (
      Stats.add flq ms;
      Layers.record_query acc ~ms ~hit;
      match Hashtbl.find_opt first q with
      | Some a -> check l (same_answers a answers) ("cached answer differs for " ^ q)
      | None ->
        check l (not hit) ("first ask of " ^ q ^ " was a cache hit");
        Hashtbl.replace first q answers;
        remember q)
  in
  let loop =
    closed_loop ~seconds (fun _ ->
        if Random.State.bool rng then attempt l (fun () -> Trace.op "section5" section5)
        else attempt l (fun () -> Trace.op "flq" fl_query))
  in
  { loop; ops_per_step = 1; lead; flq; notes = [] }

let epilogue _med _l _acc = []

let workload =
  {
    Harness.name = "s5-read";
    tails = (0.99, 0.9);
    config =
      [
        ("config", "default (assertion mode: well-founded fallback), durability off");
        ("scales", Printf.sprintf "labs %d, %d wire-registered distractors at %d" scale distractors scale);
        ("lead", "Section5.calcium_binding_query");
        ("mix", "1/2 Section 5 queries, 1/2 FL queries (1 in 3 repeats an earlier one)");
      ];
    setup;
    mediator = Fun.id;
    phase;
    epilogue;
  }
