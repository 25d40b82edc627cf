(* The benchmark harness: one experiment per entry of DESIGN.md's
   experiment index. Running with no arguments executes everything;
   passing experiment ids (f1 f2 f3 t1 e2 e3 e4 q5 p1 a1 a2 micro)
   selects a subset.

   Results are qualitative-shape reproductions: the paper (an
   architecture paper) reports no absolute numbers, so EXPERIMENTS.md
   records, per experiment, the claim whose shape must hold and the
   measured series from this harness. *)

let experiments =
  [
    ("f1", "Figure 1 domain map + closure scaling", Exp_figures.f1);
    ("f2", "Figure 2 architecture: model-based vs structural", Exp_architecture.f2);
    ("f2b", "registration throughput over the wire", Exp_architecture.registration);
    ("f3", "Figure 3 dynamic registration", Exp_figures.f3);
    ("t1", "Table 1 GCM <-> FL round trip", Exp_constraints.t1);
    ("e2", "Example 2 partial-order constraints", Exp_constraints.e2);
    ("e3", "Example 3 cardinality constraints", Exp_constraints.e3);
    ("e4", "Example 4 protein_distribution view", Exp_views.e4);
    ("q5", "Section 5 query plan + ablations", Exp_architecture.q5);
    ("p1", "Proposition 1 decidability guard + EL scaling", Exp_reasoning.p1);
    ("a1", "engine ablation: semi-naive vs naive", Exp_engine.a1);
    ("a2", "plug-in overhead across dialects", Exp_engine.a2);
    ("a3", "tabling ablation: top-down vs materialization", Exp_engine.a3);
    ("a4", "incremental maintenance vs re-materialization", Exp_engine.a4);
    ("inc", "delta-driven view maintenance vs full rebuild", Exp_incremental.run);
    ("abs", "dead-rule pruning via abstract interpretation", Exp_absint.run);
    ("q5b", "generic federated planner vs materialize-and-query", Exp_planner.q5b);
    ("dm", "Section 4 execution modes: ICs vs assertions", Exp_modes.run);
    ("join", "join-kernel: compiled plans vs interpreted", Exp_join.run);
    ("faults", "fault-injection runtime: overhead and fast-fail", Exp_faults.run);
    ("join-smoke", "join-kernel regression gate vs BENCH_join.json", Exp_join.smoke);
    ("contain", "semantic minimization: minimized vs original programs", Exp_contain.run);
    ("contain-smoke", "minimization regression gate (self-contained)", Exp_contain.smoke);
    ("recovery", "crash recovery: checkpoint + WAL replay vs cold rebuild", Exp_recovery.run);
    ("recovery-smoke", "recovery gate: replay beats cold rebuild (self-contained)", Exp_recovery.smoke);
    ("micro", "Bechamel micro-benchmarks", Micro.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ ->
      (* the smoke gates exit non-zero on regression (and join-smoke
         needs a committed reference file), so they only run when
         asked for *)
      List.filter_map
        (fun (id, _, _) ->
          if id = "join-smoke" || id = "contain-smoke" || id = "recovery-smoke"
          then None
          else Some id)
        experiments
  in
  Printf.printf
    "KIND benchmark harness — model-based mediation with domain maps (ICDE 2001)\n";
  List.iter
    (fun id ->
      match List.find_opt (fun (i, _, _) -> i = id) experiments with
      | Some (_, _, run) -> run ()
      | None ->
        Printf.printf "unknown experiment %s (have: %s)\n" id
          (String.concat ", " (List.map (fun (i, _, _) -> i) experiments)))
    requested;
  Printf.printf "\ndone.\n"
