(* Fault-matrix differential testing of the federation runtime: on
   randomly generated federations with seeded fault schedules, the
   degraded answer must be sound and the degradation report exact —

     answers(faulted)  ⊆  answers(fault-free)          (soundness)
     skipped(faulted)  =  sources the plan kills       (exactness)
     plan survivable   ⇒  answers(faulted) = answers(fault-free)
                                                       (recovery)
     same seed         ⇒  identical transcript         (replay)

   "Survivable" means every scheduled fault is absorbable by the
   default retry policy: delays only cost virtual time, and at most
   [attempts - 1] transients precede a success. Crashes and timeouts
   are not absorbable — those sources must be skipped, no more and no
   fewer.

   The run is deterministic: case [i] uses seed [base*10_000 + i] where
   [base] comes from KIND_FAULT_SEED (default 0). KIND_FAULT_CASES
   overrides the case count; every 10th case is additionally re-run
   from scratch and its transcript compared tick for tick. *)

open Mediation
module Term = Logic.Term
module Atom = Logic.Atom
module Molecule = Flogic.Molecule
module Fault = Wrapper.Fault
module Source = Wrapper.Source
module Capability = Wrapper.Capability

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let cases = max 1 (env_int "KIND_FAULT_CASES" 200)
let base_seed = env_int "KIND_FAULT_SEED" 0

(* ------------------------------------------------------------------ *)
(* A tiny domain map: enough structure for anchors at different depths
   and a lub above every source, cheap enough for hundreds of cases.   *)

let tiny_dmap () =
  let open Domain_map.Dmap in
  List.fold_left
    (fun dm (sub, super) -> isa dm sub super)
    (add_concepts empty [ "thing"; "region"; "cell"; "fiber"; "spine"; "soma" ])
    [
      ("region", "thing");
      ("cell", "thing");
      ("fiber", "region");
      ("spine", "region");
      ("soma", "region");
    ]

let anchor_concepts = [ "region"; "cell"; "fiber"; "spine"; "soma" ]

(* ------------------------------------------------------------------ *)
(* Federation generator                                                *)

type scenario =
  | Ok_  (** reliable *)
  | Slow  (** a delay: costs virtual time, answers arrive *)
  | Flaky of int  (** k < attempts transient errors, then clean *)
  | Dead  (** crash on first contact: quarantined *)
  | Deaf  (** every call times out: retries exhausted *)

let scenario_plan = function
  | Ok_ -> Fault.Reliable
  | Slow -> Fault.Script [ { Fault.at = 1; fault = Fault.Delay 80 } ]
  | Flaky k ->
    Fault.Script
      (List.init k (fun i -> { Fault.at = i + 1; fault = Fault.Transient "flaky" }))
  | Dead -> Fault.Script [ { Fault.at = 1; fault = Fault.Crash } ]
  | Deaf -> Fault.Always Fault.Timeout

let survivable = function Ok_ | Slow | Flaky _ -> true | Dead | Deaf -> false

let gen_scenario st =
  match Random.State.int st 100 with
  | n when n < 40 -> Ok_
  | n when n < 55 -> Slow
  | n when n < 75 -> Flaky (1 + Random.State.int st 2)
  | n when n < 90 -> Dead
  | _ -> Deaf

let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let gen_source st i =
  let name = Printf.sprintf "S%d" i in
  let schema =
    Gcm.Schema.make ~name
      ~classes:
        [ Gcm.Schema.class_def "c" ~methods:[ ("m", "number"); ("tag", "string") ] ]
      ()
  in
  let concept = pick st anchor_concepts in
  let nobj = 4 + Random.State.int st 5 in
  let data =
    List.concat
      (List.init nobj (fun j ->
           let id = Term.sym (Printf.sprintf "s%d_o%d" i j) in
           [
             Molecule.Isa (id, Term.sym "c");
             Molecule.Meth_val
               (id, "m", Term.float (float_of_int (Random.State.int st 5)));
             Molecule.Meth_val
               (id, "tag", Term.str (Printf.sprintf "t%d" (Random.State.int st 3)));
           ]))
  in
  Source.make ~name ~schema
    ~capabilities:
      [ Capability.scan_class "c"; Capability.select_class ~cls:"c" ~on:[ "m" ] ]
    ~anchors:[ ("c", concept, []) ]
    ~data ()

(* hot(X) :- X : region, X[m ->> V], V > 2 — an IVD whose extent mixes
   whatever sources anchor below [region] *)
let hot_ivd =
  let v = Term.var in
  [
    Molecule.rule
      (Molecule.Pred (Atom.make "hot" [ v "X" ]))
      [
        Molecule.Pos (Molecule.Isa (v "X", Term.sym "region"));
        Molecule.Pos (Molecule.Meth_val (v "X", "m", v "V"));
        Molecule.Cmp (Logic.Literal.Gt, v "V", Term.float 2.0);
      ];
  ]

type federation = {
  med : Mediator.t;
  names : string list;
  plans : (string * scenario) list;
  anchors : (string * string) list;  (** source, anchored concept *)
}

(* Build the same federation twice from one seed: once pristine (the
   oracle), once with the scheduled faults installed. *)
let build_federation st ~faulted =
  let nsrc = 2 + Random.State.int st 3 in
  let sources = List.init nsrc (gen_source st) in
  let scenarios = List.map (fun src -> (Source.name src, gen_scenario st)) sources in
  let med = Mediator.create (tiny_dmap ()) in
  List.iter
    (fun src ->
      match Mediator.register_source med src with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register %s: %s" (Source.name src) e)
    sources;
  (match Mediator.add_ivd med hot_ivd with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add_ivd: %s" e);
  if faulted then
    List.iter
      (fun (name, sc) ->
        match Mediator.set_fault_plan med ~source:name (scenario_plan sc) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set_fault_plan %s: %s" name e)
      scenarios;
  {
    med;
    names = List.map Source.name sources;
    plans = scenarios;
    anchors =
      List.map
        (fun src ->
          ( Source.name src,
            match Source.anchors src with (_, c, _) :: _ -> c | [] -> "" ))
        sources;
  }

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let goals =
  let v = Term.var in
  [
    ("thing", [ Molecule.Pos (Molecule.Isa (v "X", Term.sym "thing")) ]);
    ("hot", [ Molecule.Pos (Molecule.Pred (Atom.make "hot" [ v "X" ])) ]);
  ]

let answers med lits =
  Mediator.query med lits
  |> List.map (fun s -> Format.asprintf "%a" Logic.Subst.pp s)
  |> List.sort_uniq compare

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The replay witness of a faulted run: every per-source transcript and
   health counter, plus the runtime clock. *)
let transcript f =
  let per_source name =
    let ch =
      match Mediator.fault_channel f.med name with
      | Some ch -> ch
      | None -> Alcotest.failf "no channel for %s" name
    in
    let h = Runtime.health (Mediator.runtime f.med) name in
    Printf.sprintf "%s: calls=%d clock=%d faults=[%s] state=%s f=%d r=%d t=%d a=%d"
      name (Fault.calls ch) (Fault.clock ch)
      (String.concat ";"
         (List.map
            (fun (at, fault) ->
              Printf.sprintf "%d:%s" at (Fault.fault_to_string fault))
            (Fault.transcript ch)))
      (Runtime.state_to_string h.Runtime.state)
      h.Runtime.failures h.Runtime.retries h.Runtime.trips h.Runtime.absorbed
  in
  Printf.sprintf "clock=%d\n%s"
    (Runtime.clock (Mediator.runtime f.med))
    (String.concat "\n" (List.map per_source f.names))

let run_faulted seed =
  let f = build_federation (Random.State.make [| seed |]) ~faulted:true in
  let answ = List.map (fun (label, lits) -> (label, answers f.med lits)) goals in
  (f, answ)

let run_case seed =
  let oracle = build_federation (Random.State.make [| seed |]) ~faulted:false in
  let f, answ = run_faulted seed in
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d: same generated federation" seed)
    oracle.names f.names;
  let expected_skipped =
    List.filter_map
      (fun (name, sc) -> if survivable sc then None else Some name)
      f.plans
  in
  let c = Mediator.completeness f.med in
  (* exactness: the report names the killed sources, no more, no fewer *)
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d: skipped = killed" seed)
    expected_skipped
    (List.map fst c.Mediator.skipped);
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d: contributed = survivors" seed)
    (List.filter (fun n -> not (List.mem n expected_skipped)) f.names)
    (List.sort compare c.Mediator.contributed);
  List.iter
    (fun (label, lits) ->
      let got = List.assoc label answ in
      let want = answers oracle.med lits in
      (* soundness: degradation never invents answers *)
      if not (subset got want) then
        Alcotest.failf "seed %d: %s: degraded answers ⊄ fault-free" seed label;
      (* recovery: a survivable schedule converges to the oracle *)
      if expected_skipped = [] then
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: %s: survivable plan converges" seed label)
          want got)
    goals;
  (* suspect covers the IVD whenever a source anchored below [region]
     (hot's only class subgoal) was skipped *)
  let region_anchored =
    List.exists
      (fun name ->
        match List.assoc_opt name f.anchors with
        | Some ("region" | "fiber" | "spine" | "soma") -> true
        | _ -> false)
      expected_skipped
  in
  if region_anchored && not (List.mem "hot" c.Mediator.suspect) then
    Alcotest.failf "seed %d: hot missing from suspect set [%s]" seed
      (String.concat "," c.Mediator.suspect);
  (* replay: every 10th case re-runs the faulted build from scratch *)
  if seed mod 10 = 0 then begin
    let t1 = transcript f in
    let f2, answ2 = run_faulted seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: replay transcript" seed)
      t1 (transcript f2);
    List.iter
      (fun (label, got) ->
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: replay answers (%s)" seed label)
          got
          (List.assoc label answ2))
      answ
  end

let fault_matrix () =
  for i = 0 to cases - 1 do
    run_case ((base_seed * 10_000) + i)
  done

(* ------------------------------------------------------------------ *)
(* Directed: the Figure-3 revival path                                 *)

let fixed_federation () =
  build_federation (Random.State.make [| 7 |]) ~faulted:false

let test_revival () =
  let oracle = fixed_federation () in
  let f = fixed_federation () in
  let victim = List.hd f.names in
  let lits = List.assoc "thing" goals in
  let want = answers oracle.med lits in
  (match
     Mediator.set_fault_plan f.med ~source:victim
       (Fault.Script [ { Fault.at = 1; fault = Fault.Crash } ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let degraded = answers f.med lits in
  let c = Mediator.completeness f.med in
  Alcotest.(check (list string))
    "victim skipped" [ victim ]
    (List.map fst c.Mediator.skipped);
  Alcotest.(check bool) "degraded is a strict subset" true
    (subset degraded want && List.length degraded < List.length want);
  Alcotest.(check bool) "query counted as degraded" true
    (Mediator.degraded_queries f.med >= 1);
  let h = Runtime.health (Mediator.runtime f.med) victim in
  Alcotest.(check bool) "victim quarantined" true h.Runtime.quarantined;
  (match Mediator.revive_source f.med victim with
  | Ok () -> ()
  | Error e -> Alcotest.failf "revive: %s" e);
  Alcotest.(check (list string)) "revival restores the fixpoint" want
    (answers f.med lits);
  let c = Mediator.completeness f.med in
  Alcotest.(check (list string)) "nothing skipped after revival" []
    (List.map fst c.Mediator.skipped);
  Alcotest.(check bool) "victim contributes again" true
    (List.mem victim c.Mediator.contributed);
  let h = Runtime.health (Mediator.runtime f.med) victim in
  Alcotest.(check bool) "quarantine lifted" false h.Runtime.quarantined;
  Alcotest.(check bool) "lifetime trip count survives revival" true
    (h.Runtime.trips >= 1)

(* Directed: reviving a source mid-degradation must invalidate the
   cached answers whose completeness report listed it under [skipped] —
   a degraded answer cached before the revival must never be served
   after it. A cached entry that reads none of the revived source's
   reachable predicates survives. *)
let test_revival_cache_invalidation () =
  let oracle = fixed_federation () in
  let f = fixed_federation () in
  let victim = List.hd f.names in
  let lits = List.assoc "thing" goals in
  let want = answers oracle.med lits in
  (match
     Mediator.set_fault_plan f.med ~source:victim
       (Fault.Script [ { Fault.at = 1; fault = Fault.Crash } ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let degraded = answers f.med lits in
  Alcotest.(check bool) "degraded misses the victim's tuples" true
    (degraded <> want && subset degraded want);
  (* an unrelated entry: no predicate reads at all, so no skipped
     source can reach it — it must survive the revival *)
  let tautology = [ Molecule.Cmp (Logic.Literal.Gt, Term.float 3.0, Term.float 2.0) ] in
  ignore (answers f.med tautology);
  let s0 = Mediator.cache_stats f.med in
  ignore (answers f.med lits);
  let s1 = Mediator.cache_stats f.med in
  Alcotest.(check bool) "degraded answer was being served from cache" true
    (s1.Mediator.hits > s0.Mediator.hits);
  (match Mediator.revive_source f.med victim with
  | Ok () -> ()
  | Error e -> Alcotest.failf "revive: %s" e);
  let s2 = Mediator.cache_stats f.med in
  Alcotest.(check bool) "revival invalidated the degraded entries" true
    (s2.Mediator.invalidated > s1.Mediator.invalidated);
  (* the regression this guards: without the invalidation the next
     query is a cache hit on the stale degraded subset *)
  Alcotest.(check (list string)) "post-revival answers are complete" want
    (answers f.med lits);
  (* the read-free entry is still a hit *)
  let s3 = Mediator.cache_stats f.med in
  ignore (answers f.med tautology);
  let s4 = Mediator.cache_stats f.med in
  Alcotest.(check bool) "unrelated cached entry survived the revival" true
    (s4.Mediator.hits > s3.Mediator.hits)

(* Directed: wire corruption is retryable, not fatal — and a persistent
   corrupter is skipped with a corruption reason. *)
let test_corruption_failure () =
  let f = fixed_federation () in
  let victim = List.hd f.names in
  (match
     Mediator.set_fault_plan f.med ~source:victim (Fault.Always (Fault.Truncate 500))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Mediator.query f.med (List.assoc "thing" goals));
  let c = Mediator.completeness f.med in
  (match List.assoc_opt victim c.Mediator.skipped with
  | Some reason ->
    Alcotest.(check bool)
      (Printf.sprintf "reason mentions corruption: %s" reason)
      true
      (contains reason "corrupt")
  | None -> Alcotest.fail "persistent corrupter was not skipped");
  let h = Runtime.health (Mediator.runtime f.med) victim in
  Alcotest.(check int) "all attempts burned"
    (Runtime.policy (Mediator.runtime f.med)).Runtime.retry.Runtime.attempts
    h.Runtime.failures

(* Directed: a single transient corruption is absorbed by one retry. *)
let test_corruption_absorbed () =
  let oracle = fixed_federation () in
  let f = fixed_federation () in
  let victim = List.hd f.names in
  (match
     Mediator.set_fault_plan f.med ~source:victim
       (Fault.Script [ { Fault.at = 1; fault = Fault.Garble } ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let lits = List.assoc "thing" goals in
  Alcotest.(check (list string)) "one garbled payload is absorbed"
    (answers oracle.med lits) (answers f.med lits);
  let h = Runtime.health (Mediator.runtime f.med) victim in
  Alcotest.(check bool) "the retry was counted" true (h.Runtime.retries >= 1);
  Alcotest.(check bool) "the fetch was absorbed" true (h.Runtime.absorbed >= 1)

(* Directed: stale capability answers — after the fault fires the
   channel over-advertises; the mediator sees the inflated set. *)
let test_stale_capabilities () =
  let f = fixed_federation () in
  let victim = List.hd f.names in
  let honest = Mediator.capabilities_of f.med victim in
  (match
     Mediator.set_fault_plan f.med ~source:victim
       (Fault.Script [ { Fault.at = 1; fault = Fault.Stale_caps } ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Mediator.query f.med (List.assoc "thing" goals));
  let ch =
    match Mediator.fault_channel f.med victim with
    | Some ch -> ch
    | None -> Alcotest.fail "no channel"
  in
  Alcotest.(check bool) "stale flag latched" true (Fault.stale ch);
  Alcotest.(check bool) "capabilities over-advertised" true
    (Mediator.capabilities_of f.med victim <> honest);
  (* over-advertised ⊇ honest: a Stale_caps source still answers what it
     really can; the data path stays sound *)
  let c = Mediator.completeness f.med in
  Alcotest.(check (list string)) "stale caps do not skip the source" []
    (List.map fst c.Mediator.skipped)

(* Directed: a gather polls the sources one after another, so the
   runtime clock advances by the sum of the fetches. Under [Always
   (Delay 30)] each fetch costs 31 virtual ms (1 ms call + 30 ms
   delay); the three demo labs cost 93. *)
let test_gather_clock () =
  let med =
    Neuro.Sources.standard_mediator { Neuro.Sources.seed = 7; scale = 10 }
  in
  List.iter
    (fun src ->
      match
        Mediator.set_fault_plan med ~source:(Source.name src)
          (Fault.Always (Fault.Delay 30))
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    (Mediator.sources med);
  ignore (Mediator.materialize med);
  Alcotest.(check int) "clock = 3 x (1 ms call + 30 ms delay)" 93
    (Runtime.clock (Mediator.runtime med));
  Alcotest.(check (list string)) "every lab contributed"
    [ "SYNAPSE"; "NCMIR"; "SENSELAB" ]
    (Mediator.completeness med).Mediator.contributed

let suites =
  [
    ( "faults",
      [
        Alcotest.test_case
          (Printf.sprintf
             "%d random federations: degraded ⊆ fault-free, skipped exact, \
              replay identical"
             cases)
          `Quick fault_matrix;
        Alcotest.test_case "crash, quarantine, Figure-3 revival" `Quick
          test_revival;
        Alcotest.test_case "revival invalidates degraded cached answers" `Quick
          test_revival_cache_invalidation;
        Alcotest.test_case "persistent corruption skips the source" `Quick
          test_corruption_failure;
        Alcotest.test_case "transient corruption is absorbed by a retry" `Quick
          test_corruption_absorbed;
        Alcotest.test_case "stale capability answers over-advertise" `Quick
          test_stale_capabilities;
        Alcotest.test_case "gather clock is the sum of its fetches" `Quick
          test_gather_clock;
      ] );
  ]
