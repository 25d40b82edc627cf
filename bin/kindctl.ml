(* kindctl — command-line access to the KIND mediator stack.

   Subcommands:
     run        evaluate an F-logic program file and answer its queries
     check      audit an F-logic program for integrity violations
     lint       static analysis (kindlint) of programs or the demo
                federation, without evaluating anything
     provenance per derived predicate, the registered sources that can
                transitively reach it (abstract interpretation)
     translate  run a CM plug-in over an XML document
     dmap       print/export the ANATOM domain map (text or Graphviz)
     classify   subsumers of a concept in the ANATOM map
     demo       the Section 5 walk-through, with ablation switches
     maintain   stream source updates against a live materialization and
                report incremental-maintenance and result-cache stats
     checkpoint write a durable checkpoint of the demo federation
     recover    rebuild the demo federation from checkpoint + WAL
     wal-status inspect a durability directory *)

open Kind
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let pp_answers lits answers =
  let vars =
    List.concat_map
      (fun l ->
        match l with
        | Flogic.Molecule.Pos m | Flogic.Molecule.Neg m -> Flogic.Molecule.vars m
        | _ -> [])
      lits
    |> List.filter (fun v -> not (String.length v > 1 && v.[0] = '_'))
    |> List.sort_uniq String.compare
  in
  if answers = [] then print_endline "  no."
  else
    List.iter
      (fun sub ->
        let bindings =
          List.filter_map
            (fun v ->
              match Logic.Subst.find v sub with
              | Some t -> Some (Printf.sprintf "%s = %s" v (Logic.Term.to_string t))
              | None -> None)
            vars
        in
        print_endline
          ("  " ^ if bindings = [] then "yes." else String.concat ", " bindings))
      answers

(* Materialize the program and hand the model to [k]. A materialized
   database holds only true facts: a model that leaves atoms undefined
   is reported, exit 1, and so is an evaluation that runs out of
   rounds or whose alternating fixpoint cannot settle. *)
let with_model t k =
  match Flogic.Fl_program.run t with
  | exception Datalog.Engine.Undefined_atoms n ->
    Printf.eprintf
      "the program leaves %d atom%s undefined under the well-founded \
       semantics\n"
      n
      (if n = 1 then "" else "s");
    1
  | exception Datalog.Eval.Diverged msg ->
    Printf.eprintf "evaluation stopped: %s\n" msg;
    1
  | db -> k db

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"F-logic program")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY"
           ~doc:"additional goal to solve, e.g. \"X : spine, X[diameter ->> D]\"")
  in
  let engine =
    Arg.(value & opt string "bottomup" & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"bottomup (materialize, default) or topdown (tabled, \
                 goal-directed; queries only, no aggregates/skolems)")
  in
  let solve_topdown t parsed goals =
    match Flogic.Fl_program.compile t with
    | Error e ->
      prerr_endline e;
      1
    | Ok p ->
      List.iter
        (fun lits ->
          Printf.printf "?- %s\n"
            (String.concat ", "
               (List.map
                  (fun l -> Format.asprintf "%a" Flogic.Molecule.pp_lit l)
                  lits));
          (* wrap the conjunctive goal in a fresh tabled predicate *)
          let vars =
            List.concat_map
              (fun l ->
                match l with
                | Flogic.Molecule.Pos m | Flogic.Molecule.Neg m ->
                  Flogic.Molecule.vars m
                | _ -> [])
              lits
            |> List.sort_uniq String.compare
            |> List.filter (fun v -> not (String.length v > 1 && v.[0] = '_'))
          in
          let goal_head =
            Logic.Atom.make "goal_" (List.map Logic.Term.var vars)
          in
          let body =
            List.concat_map
              (Flogic.Compile.body_literals parsed.Flogic.Fl_parser.signature)
              lits
          in
          match
            Datalog.Program.add_rule p (Logic.Rule.make goal_head body)
          with
          | Error e -> prerr_endline e
          | Ok p' -> (
            match
              Datalog.Topdown.solve p' (Datalog.Database.create ()) goal_head
            with
            | exception Datalog.Topdown.Unsupported m ->
              Printf.printf "  top-down unsupported here (%s); use --engine bottomup\n" m
            | tuples ->
              if tuples = [] then print_endline "  no."
              else
                List.iter
                  (fun tup ->
                    print_endline
                      ("  "
                      ^ String.concat ", "
                          (List.map2
                             (fun v t ->
                               Printf.sprintf "%s = %s" v (Logic.Term.to_string t))
                             vars tup)))
                  tuples))
        goals;
      0
  in
  let run file query engine =
    match Flogic.Fl_parser.parse_program (read_file file) with
    | Error e ->
      prerr_endline e;
      1
    | Ok parsed -> (
      let t =
        Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
          parsed.Flogic.Fl_parser.rules
      in
      let goals =
        parsed.Flogic.Fl_parser.queries
        @
        match query with
        | None -> []
        | Some q -> (
          match
            Flogic.Fl_parser.parse_query
              ~signature:parsed.Flogic.Fl_parser.signature q
          with
          | Ok lits -> [ lits ]
          | Error e ->
            prerr_endline e;
            [])
      in
      if String.equal engine "topdown" then solve_topdown t parsed goals
      else
        match Flogic.Fl_program.compile t with
        | Error e ->
          prerr_endline e;
          1
        | Ok _ ->
          with_model t (fun db ->
            Printf.printf "%d facts derived.\n" (Datalog.Database.cardinal db);
            (* an unsafe query is reported and skipped; the others
               still run *)
            List.fold_left
              (fun code lits ->
                Printf.printf "?- %s\n%!"
                  (String.concat ", "
                     (List.map
                        (fun l -> Format.asprintf "%a" Flogic.Molecule.pp_lit l)
                        lits));
                match Flogic.Fl_program.query t db lits with
                | answers ->
                  pp_answers lits answers;
                  code
                | exception Invalid_argument e ->
                  prerr_endline e;
                  1)
              0 goals))
  in
  Cmd.v (Cmd.info "run" ~doc:"evaluate an F-logic program and answer its queries")
    Term.(const run $ file $ query $ engine)

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"F-logic program")
  in
  let run file =
    match Flogic.Fl_parser.parse_program (read_file file) with
    | Error e ->
      prerr_endline e;
      1
    | Ok parsed ->
      let t =
        Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
          parsed.Flogic.Fl_parser.rules
      in
      with_model t (fun db ->
        let ws = Flogic.Ic.violations db in
        if ws = [] then begin
          print_endline "consistent: no integrity-constraint witnesses.";
          0
        end
        else begin
          Printf.printf "%d violation(s):\n" (List.length ws);
          List.iter
            (fun w -> Format.printf "  %a@." Flogic.Ic.pp_witness w)
            ws;
          1
        end)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"audit an F-logic program for integrity violations")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* lint *)

(* shared by [lint] and [cost]: 0 clean, 1 strict warnings, 2 errors,
   3 usage *)
let lint_exits =
  Cmd.Exit.info 0 ~doc:"no diagnostics (warnings only, without \
                        $(b,--strict))."
  :: Cmd.Exit.info 1 ~doc:"warning-severity diagnostics under \
                           $(b,--strict)."
  :: Cmd.Exit.info 2 ~doc:"reject-level (error-severity) diagnostics."
  :: Cmd.Exit.info 3 ~doc:"usage errors: no input given, unreadable or \
                           unparsable arguments."
  :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults

let lint_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"F-logic program(s) to lint")
  in
  let demo =
    Arg.(value & flag & info [ "demo" ]
           ~doc:"lint the Section 5 demo federation (domain map, sources, \
                 IVDs, capabilities) instead of program files")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON output")
  in
  let sarif =
    Arg.(value & flag & info [ "sarif" ]
           ~doc:"SARIF 2.1.0 output (one run, rule ids $(i,pass/code)) — \
                 what CI uploads as a code-scanning artifact; takes \
                 precedence over $(b,--json)")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"exit nonzero on warnings too (a negative cycle, which the \
                 engine evaluates under the well-founded semantics, is a \
                 warning)")
  in
  let scale =
    Arg.(value & opt int 10 & info [ "scale" ] ~docv:"N"
           ~doc:"rows per class for --demo")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let run files demo json sarif strict scale seed =
    let lint_file f =
      match Flogic.Fl_parser.parse_program (read_file f) with
      | Error e ->
        [
          Analysis.Diagnostic.make ~severity:Analysis.Diagnostic.Error
            ~pass:"rules" ~code:"parse-error"
            ~location:(Analysis.Diagnostic.Source f) e;
        ]
      | Ok parsed ->
        Analysis.Kindlint.lint_program
          ~positions:parsed.Flogic.Fl_parser.rule_positions
          (Flogic.Fl_program.make
             ~signature:parsed.Flogic.Fl_parser.signature
             parsed.Flogic.Fl_parser.rules)
    in
    let demo_diags () =
      let med =
        Neuro.Sources.standard_mediator { Neuro.Sources.seed; scale }
      in
      Mediation.Lint.federation med
    in
    if files = [] && not demo then begin
      prerr_endline "lint: nothing to do; give program FILEs or --demo";
      3
    end
    else begin
      let per_file = List.map (fun f -> (f, lint_file f)) files in
      let demo_d = if demo then demo_diags () else [] in
      let sorted =
        Analysis.Diagnostic.sort (List.concat_map snd per_file @ demo_d)
      in
      if sarif then
        print_endline
          (Analysis.Diagnostic.list_to_sarif
             (List.map (fun (f, ds) -> (Some f, ds)) per_file
             @ if demo then [ (None, demo_d) ] else []))
      else if json then print_endline (Analysis.Diagnostic.list_to_json sorted)
      else begin
        List.iter
          (fun (f, ds) ->
            Format.printf "%s:@." f;
            Format.printf "%a@." Analysis.Diagnostic.pp_report ds)
          per_file;
        if demo then begin
          Format.printf "demo federation:@.";
          Format.printf "%a@." Analysis.Diagnostic.pp_report demo_d
        end
      end;
      if Analysis.Diagnostic.count sorted Analysis.Diagnostic.Error > 0 then 2
      else if
        strict
        && Analysis.Diagnostic.count sorted Analysis.Diagnostic.Warning > 0
      then 1
      else 0
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"kindlint: static analysis of F-logic programs and the demo \
             federation — rule safety, stratification, schema conformance, \
             capability feasibility, domain-map well-formedness"
       ~exits:lint_exits)
    Term.(const run $ files $ demo $ json $ sarif $ strict $ scale $ seed)

(* ------------------------------------------------------------------ *)
(* provenance *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* contain *)

let contain_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"F-logic program(s) to analyze")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON output")
  in
  let run files json =
    let module C = Analysis.Contain in
    let module T = Analysis.Terminate in
    if files = [] then begin
      prerr_endline "contain: nothing to do; give program FILEs";
      3
    end
    else begin
      let failed = ref false in
      let analyze f =
        match Flogic.Fl_parser.parse_program (read_file f) with
        | Error e ->
          failed := true;
          (f, Error e)
        | Ok parsed -> (
          let p =
            Flogic.Fl_program.make
              ~signature:parsed.Flogic.Fl_parser.signature
              parsed.Flogic.Fl_parser.rules
          in
          match
            try
              Ok
                ( (match Flogic.Fl_program.compile p with
                  | Ok dp -> Datalog.Program.rules dp
                  | Error e -> raise (Flogic.Compile.Compile_error e)),
                  List.concat_map
                    (Flogic.Compile.rule p.Flogic.Fl_program.signature)
                    p.Flogic.Fl_program.rules )
            with Flogic.Compile.Compile_error e -> Error e
          with
          | Error e ->
            failed := true;
            (f, Error e)
          | Ok (all, user_rules) ->
            let ctx = C.make_ctx ~rules:all () in
            let per_rule =
              List.map
                (fun r ->
                  let mini = C.minimize_rule ctx r in
                  ( r,
                    C.unsatisfiable ctx r,
                    C.implied_atoms ctx r,
                    if Logic.Rule.equal mini r then None else Some mini ))
                user_rules
            in
            (f, Ok (per_rule, T.analyze all)))
      in
      let reports = List.map analyze files in
      let term_json = function
        | T.Safe { refined } ->
          Printf.sprintf "{\"safe\":true,\"refined\":%b,\"cycle\":null}"
            refined
        | T.Unsafe cyc ->
          Printf.sprintf "{\"safe\":false,\"refined\":false,\"cycle\":%s}"
            (json_str (T.cycle_to_string cyc))
      in
      if json then begin
        let file_json (f, res) =
          match res with
          | Error e ->
            Printf.sprintf "{\"file\":%s,\"error\":%s}" (json_str f)
              (json_str e)
          | Ok (per_rule, verdict) ->
            let rule_json (r, unsat, implied, mini) =
              Printf.sprintf
                "{\"rule\":%s,\"unsatisfiable\":%s,\"implied\":[%s],\
                 \"minimized\":%s}"
                (json_str (Logic.Rule.to_string r))
                (match unsat with
                | None -> "null"
                | Some reason -> json_str reason)
                (String.concat ","
                   (List.map
                      (fun a -> json_str (Logic.Atom.to_string a))
                      implied))
                (match mini with
                | None -> "null"
                | Some m -> json_str (Logic.Rule.to_string m))
            in
            Printf.sprintf
              "{\"file\":%s,\"rules\":[%s],\"termination\":%s}" (json_str f)
              (String.concat ",\n  " (List.map rule_json per_rule))
              (term_json verdict)
        in
        Printf.printf "[%s]\n"
          (String.concat ",\n " (List.map file_json reports))
      end
      else
        List.iter
          (fun (f, res) ->
            Format.printf "%s:@." f;
            match res with
            | Error e -> Format.printf "  error: %s@." e
            | Ok (per_rule, verdict) ->
              List.iter
                (fun (r, unsat, implied, mini) ->
                  Format.printf "  %s@." (Logic.Rule.to_string r);
                  (match unsat with
                  | Some reason ->
                    Format.printf "    unsatisfiable: %s@." reason
                  | None -> ());
                  List.iter
                    (fun a ->
                      Format.printf "    implied atom: %s@."
                        (Logic.Atom.to_string a))
                    implied;
                  match mini with
                  | Some m ->
                    Format.printf "    minimized: %s@."
                      (Logic.Rule.to_string m)
                  | None -> ())
                per_rule;
              (match verdict with
              | T.Safe { refined = false } ->
                Format.printf "  termination: safe (weakly acyclic)@."
              | T.Safe { refined = true } ->
                Format.printf
                  "  termination: safe (super-weak-acyclicity refinement)@."
              | T.Unsafe cyc ->
                Format.printf "  termination: possible nontermination — %s@."
                  (T.cycle_to_string cyc)))
          reports;
      if !failed then 2 else 0
    end
  in
  Cmd.v
    (Cmd.info "contain"
       ~doc:"semantic containment analysis: per-rule satisfiability, \
             implied body atoms and the minimized rule (Chandra–Merlin \
             containment modulo the GCM axioms), plus the skolem-safety \
             termination verdict"
       ~exits:lint_exits)
    Term.(const run $ files $ json)

(* ------------------------------------------------------------------ *)
(* cost *)

let cost_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"F-logic program(s) to analyze")
  in
  let demo =
    Arg.(value & flag & info [ "demo" ]
           ~doc:"analyze the Section 5 demo federation (with the \
                 walkthrough views installed) instead of program files")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON output")
  in
  let budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
           ~doc:"row budget: a rule whose estimated result exceeds N rows \
                 (or is provably unbounded while synthesising fresh \
                 values) gets a reject-level over-budget error")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"exit nonzero on warnings too")
  in
  let scale =
    Arg.(value & opt int 10 & info [ "scale" ] ~docv:"N"
           ~doc:"rows per class for --demo")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let run files demo json budget strict scale seed =
    let module C = Analysis.Cost_lint in
    let module Card = Analysis.Card in
    let module D = Analysis.Diagnostic in
    let error_report ~code f e =
      {
        C.empty with
        C.diags =
          [
            D.make ~severity:D.Error ~pass:"rules" ~code
              ~location:(D.Source f) e;
          ];
      }
    in
    let analyze_rules p rules =
      C.analyze ?budget
        ~assume_nonempty:
          (Analysis.Kindlint.open_predicate
             ~signature:p.Flogic.Fl_program.signature rules)
        rules
    in
    let report_of_file f =
      match Flogic.Fl_parser.parse_program (read_file f) with
      | Error e -> error_report ~code:"parse-error" f e
      | Ok parsed -> (
        let p =
          Flogic.Fl_program.make
            ~signature:parsed.Flogic.Fl_parser.signature
            parsed.Flogic.Fl_parser.rules
        in
        match Flogic.Fl_program.compile p with
        | Ok dp -> analyze_rules p (Datalog.Program.rules dp)
        | Error e -> (
          (* the whole program does not compile; like kindlint, still
             analyze the rules that are individually fine, with the
             GCM axioms in scope *)
          match
            List.concat_map
              (fun r ->
                try Flogic.Compile.rule p.Flogic.Fl_program.signature r
                with Flogic.Compile.Compile_error _ -> [])
              p.Flogic.Fl_program.rules
          with
          | exception Flogic.Compile.Compile_error e' ->
            error_report ~code:"compile-error" f e'
          | dl_rules -> (
            let safe =
              Flogic.Gcm_axioms.core
              @ (if p.Flogic.Fl_program.inheritance then
                   Flogic.Gcm_axioms.nonmonotonic_inheritance
                 else [])
              @ List.filter
                  (fun r -> Logic.Rule.safety_errors r = [])
                  dl_rules
            in
            match Datalog.Program.make safe with
            | Error _ -> error_report ~code:"compile-error" f e
            | Ok dp ->
              let r = analyze_rules p (Datalog.Program.rules dp) in
              {
                r with
                C.diags =
                  (error_report ~code:"compile-error" f e).C.diags
                  @ r.C.diags;
              })))
    in
    let demo_report () =
      let med =
        Neuro.Sources.standard_mediator { Neuro.Sources.seed; scale }
      in
      (* the provenance walkthrough views, so the report has IVDs to
         price (colocated is a genuine cross-product) *)
      (match
         Mediation.Mediator.add_ivd_text med
           "big_spine(X) :- X : 'SYNAPSE.spine_measure', X[diameter ->> \
            D], D > 0.5.\n\
            spiny_signal(N) :- N : neurotransmission.\n\
            colocated(N, X) :- spiny_signal(N), big_spine(X)."
       with
      | Ok () -> ()
      | Error e -> prerr_endline e);
      Mediation.Lint.cost ?budget med
    in
    let json_bound b =
      match Card.finite b with None -> "null" | Some n -> string_of_int n
    in
    let iv_json (i : Card.interval) =
      Printf.sprintf "{\"lo\":%d,\"hi\":%s}" i.Card.lo (json_bound i.Card.hi)
    in
    let json_of_report (r : C.report) =
      let preds =
        List.map
          (fun (p, iv) ->
            Printf.sprintf "%s:%s" (json_str p) (iv_json iv))
          r.C.intervals
      in
      let costs =
        List.map
          (fun ((rule : Logic.Rule.t), (c : Card.rule_cost)) ->
            Printf.sprintf
              "{\"rule\":%s,\"order\":[%s],\"est\":%s,\"cost\":%s,\
               \"cross_products\":%d,\"recursive\":%b,\"growing\":%b}"
              (json_str (Logic.Rule.to_string rule))
              (String.concat "," (List.map string_of_int c.Card.order))
              (iv_json c.Card.est) (json_bound c.Card.cost)
              c.Card.cross_products c.Card.recursive c.Card.growing)
          r.C.costs
      in
      Printf.sprintf
        "{\"intervals\":{%s},\n \"rules\":[%s],\n \"diagnostics\":%s}"
        (String.concat "," preds)
        (String.concat ",\n  " costs)
        (D.list_to_json (D.normalize r.C.diags))
    in
    let pp_text label (r : C.report) =
      Format.printf "%s:@." label;
      Format.printf "  per-predicate cardinality bounds:@.";
      List.iter
        (fun (p, iv) -> Format.printf "    %-28s %a@." p Card.pp_interval iv)
        r.C.intervals;
      if r.C.costs <> [] then Format.printf "  per-rule join orders:@.";
      List.iter
        (fun ((rule : Logic.Rule.t), (c : Card.rule_cost)) ->
          Format.printf "    %s@." (Logic.Rule.to_string rule);
          Format.printf "      order [%s]  est %a%s%s%s@."
            (String.concat " " (List.map string_of_int c.Card.order))
            Card.pp_interval c.Card.est
            (match Card.finite c.Card.cost with
            | Some o -> Printf.sprintf "  cost %d" o
            | None -> "  cost unbounded")
            (if c.Card.cross_products > 0 then "  [cross-product]" else "")
            (if c.Card.growing then "  [unbounded growth]" else ""))
        r.C.costs;
      let ds = D.normalize r.C.diags in
      if ds <> [] then Format.printf "%a@." D.pp_report ds
    in
    if files = [] && not demo then begin
      prerr_endline "cost: nothing to do; give program FILEs or --demo";
      3
    end
    else begin
      let labeled =
        List.map (fun f -> (f, report_of_file f)) files
        @ (if demo then [ ("demo federation", demo_report ()) ] else [])
      in
      if json then
        print_endline
          (match labeled with
          | [ (_, r) ] -> json_of_report r
          | _ ->
            Printf.sprintf "{%s}"
              (String.concat ",\n"
                 (List.map
                    (fun (l, r) ->
                      Printf.sprintf "%s:%s" (json_str l)
                        (json_of_report r))
                    labeled)))
      else List.iter (fun (l, r) -> pp_text l r) labeled;
      let all = List.concat_map (fun (_, r) -> r.C.diags) labeled in
      if D.count all D.Error > 0 then 2
      else if strict && D.count all D.Warning > 0 then 1
      else 0
    end
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:"cardinality/cost abstract interpretation: per-predicate row \
             bounds, per-rule join orders and estimates, and complexity \
             hazards (cross-product joins, unbounded skolem growth, \
             over-budget views)"
       ~exits:lint_exits)
    Term.(const run $ files $ demo $ json $ budget $ strict $ scale $ seed)

let provenance_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"F-logic program whose views to analyze (instead of --demo)")
  in
  let demo =
    Arg.(value & flag & info [ "demo" ]
           ~doc:"analyze the IVDs of the Section 5 demo federation")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON output")
  in
  let srcs =
    Arg.(value & opt_all string [] & info [ "source" ] ~docv:"NAME"
           ~doc:"treat NAME as a registered source (FILE mode; repeatable)")
  in
  let scale =
    Arg.(value & opt int 10 & info [ "scale" ] ~docv:"N"
           ~doc:"rows per class for --demo")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let run file demo json srcs scale seed =
    let analyzed =
      if demo then begin
        let med =
          Neuro.Sources.standard_mediator { Neuro.Sources.seed; scale }
        in
        (* the walkthrough views: one per source, one composed *)
        (match
           Mediation.Mediator.add_ivd_text med
             "big_spine(X) :- X : 'SYNAPSE.spine_measure', X[diameter ->> \
              D], D > 0.5.\n\
              spiny_signal(N) :- N : neurotransmission.\n\
              colocated(N, X) :- spiny_signal(N), big_spine(X)."
         with
        | Ok () -> ()
        | Error e -> prerr_endline e);
        Some (Mediation.Lint.provenance med, Mediation.Mediator.ivds med)
      end
      else
        match file with
        | None -> None
        | Some f -> (
          match Flogic.Fl_parser.parse_program (read_file f) with
          | Error e ->
            prerr_endline e;
            None
          | Ok parsed ->
            let rules = parsed.Flogic.Fl_parser.rules in
            Some (Analysis.Prov_lint.analyze ~sources:srcs rules, rules))
    in
    match analyzed with
    | None ->
      prerr_endline "provenance: nothing to do; give a program FILE or --demo";
      2
    | Some (result, rules) ->
      if json then begin
        let preds =
          List.map
            (fun (p, ss) ->
              Printf.sprintf "%s:[%s]" (json_str p)
                (String.concat "," (List.map json_str ss)))
            result.Analysis.Prov_lint.predicates
        in
        let rule_objs =
          List.map2
            (fun r ss ->
              Printf.sprintf "{\"rule\":%s,\"sources\":[%s]}"
                (json_str (Flogic.Molecule.rule_to_string r))
                (String.concat "," (List.map json_str ss)))
            rules result.Analysis.Prov_lint.rule_sources
        in
        Printf.printf
          "{\"predicates\":{%s},\n \"rules\":[%s],\n \"diagnostics\":%s}\n"
          (String.concat "," preds)
          (String.concat ",\n  " rule_objs)
          (Analysis.Diagnostic.list_to_json result.Analysis.Prov_lint.diags)
      end
      else begin
        Printf.printf "source provenance of %d rule(s):\n" (List.length rules);
        List.iter2
          (fun r ss ->
            Printf.printf "  %s\n    <- %s\n"
              (Flogic.Molecule.rule_to_string r)
              (if ss = [] then "(no registered source)"
               else String.concat ", " ss))
          rules result.Analysis.Prov_lint.rule_sources;
        print_endline "per derived predicate:";
        List.iter
          (fun (p, ss) ->
            Printf.printf "  %-24s %s\n" p
              (if ss = [] then "(none)" else String.concat ", " ss))
          result.Analysis.Prov_lint.predicates;
        if result.Analysis.Prov_lint.diags <> [] then
          Format.printf "%a"
            Analysis.Diagnostic.pp_report result.Analysis.Prov_lint.diags
      end;
      if Analysis.Diagnostic.errors result.Analysis.Prov_lint.diags <> []
      then 1
      else 0
  in
  Cmd.v
    (Cmd.info "provenance"
       ~doc:"which registered sources can reach each derived predicate \
             (abstract interpretation over the view graph)")
    Term.(const run $ file $ demo $ json $ srcs $ scale $ seed)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"F-logic program")
  in
  let fact_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FACT"
           ~doc:"ground fact to explain, e.g. \"tc(a, c)\" or \"s1 : spine\"")
  in
  let run file fact_s =
    match Flogic.Fl_parser.parse_program (read_file file) with
    | Error e ->
      prerr_endline e;
      1
    | Ok parsed -> (
      let t =
        Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
          parsed.Flogic.Fl_parser.rules
      in
      match Flogic.Fl_program.compile t with
      | Error e ->
        prerr_endline e;
        1
      | Ok p -> (
        match
          Flogic.Fl_parser.parse_query
            ~signature:parsed.Flogic.Fl_parser.signature fact_s
        with
        | Error e ->
          prerr_endline e;
          1
        | Ok lits -> (
          let atoms =
            List.concat_map
              (Flogic.Compile.body_literals parsed.Flogic.Fl_parser.signature)
              lits
            |> List.filter_map (function
                 | Logic.Literal.Pos a -> Some a
                 | _ -> None)
          in
          match atoms with
          | [ goal ] when Logic.Atom.is_ground goal -> (
            let facts, rules_only = Datalog.Program.split_facts p in
            let edb = Datalog.Database.of_facts facts in
            let db =
              Datalog.Engine.materialize p (Datalog.Database.create ())
            in
            let rules_p =
              Datalog.Program.make_exn (Datalog.Program.rules rules_only)
            in
            match Datalog.Explain.explain rules_p db ~edb goal with
            | Some proof ->
              Format.printf "%a@." Datalog.Explain.pp proof;
              Printf.printf "rests on %d source fact(s)\n"
                (List.length
                   (List.sort_uniq compare (Datalog.Explain.leaves proof)));
              0
            | None ->
              Printf.printf "%s does not hold.\n" fact_s;
              1)
          | _ ->
            prerr_endline "explain expects exactly one ground fact";
            1)))
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"derivation tree (why-provenance) for a fact")
    Term.(const run $ file $ fact_arg)

(* ------------------------------------------------------------------ *)
(* translate *)

let translate_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML document")
  in
  let format =
    Arg.(value & opt string "gcm-xml" & info [ "f"; "format" ] ~docv:"FORMAT"
           ~doc:"CM dialect: gcm-xml, er-xml, uxf or rdfs")
  in
  let run file format =
    let reg = Cm_plugins.Defaults.registry () in
    match Cm_plugins.Plugin.translate_string reg ~format (read_file file) with
    | Error e ->
      prerr_endline e;
      1
    | Ok tr ->
      Format.printf "%a" Gcm.Schema.pp tr.Cm_plugins.Plugin.schema;
      Printf.printf "facts (%d):\n" (List.length tr.Cm_plugins.Plugin.facts);
      List.iter
        (fun m -> Format.printf "  %a.@." Flogic.Molecule.pp m)
        tr.Cm_plugins.Plugin.facts;
      List.iter
        (fun (cls, concept, ctx) ->
          Printf.printf "anchor: %s @ %s%s\n" cls concept
            (if ctx = [] then "" else " [" ^ String.concat " " ctx ^ "]"))
        tr.Cm_plugins.Plugin.anchors;
      0
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"run a CM plug-in over an XML document")
    Term.(const run $ file $ format)

(* ------------------------------------------------------------------ *)
(* dmap *)

let which_map =
  Arg.(value & opt string "full" & info [ "m"; "map" ] ~docv:"MAP"
         ~doc:"fig1, fig3 (base + registration) or full")

let get_map = function
  | "fig1" -> (Neuro.Anatom.fig1, [])
  | "fig3" -> (
    match
      Domain_map.Register.register Neuro.Anatom.fig3_base
        Neuro.Anatom.fig3_registration
    with
    | Ok out -> (out.Domain_map.Register.dmap, out.Domain_map.Register.added_concepts)
    | Error e -> failwith e)
  | "full" -> (Neuro.Anatom.full, [])
  | m -> failwith ("unknown map " ^ m ^ " (use fig1, fig3 or full)")

let dmap_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"emit Graphviz") in
  let run map dot =
    let dm, highlight = get_map map in
    if dot then print_string (Domain_map.Dmap.to_dot ~highlight dm)
    else Format.printf "%a" Domain_map.Dmap.pp dm;
    0
  in
  Cmd.v
    (Cmd.info "dmap" ~doc:"print or export a domain map")
    Term.(const run $ which_map $ dot)

(* ------------------------------------------------------------------ *)
(* classify *)

let classify_cmd =
  let concept =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CONCEPT")
  in
  let run map concept =
    let dm, _ = get_map map in
    match Domain_map.Register.classification dm concept with
    | Ok supers ->
      Printf.printf "%s is subsumed by: %s\n" concept (String.concat ", " supers);
      0
    | Error f ->
      Printf.printf "outside the decidable fragment: %s\n" f;
      1
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"named subsumers of a concept (EL completion)")
    Term.(const run $ which_map $ concept)

(* ------------------------------------------------------------------ *)
(* query: federated conjunctive queries over the demo federation *)

let query_cmd =
  let goal =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"GOAL"
           ~doc:"e.g. \"X : spine, X[diameter ->> D], D > 0.6\"")
  in
  let scale =
    Arg.(value & opt int 50 & info [ "scale" ] ~docv:"N" ~doc:"rows per class")
  in
  let run goal scale =
    let med =
      Neuro.Sources.standard_mediator { Neuro.Sources.seed = 42; scale }
    in
    match Mediation.Conjunctive.run_text med goal with
    | Error e ->
      prerr_endline e;
      1
    | Ok (answers, report) ->
      Format.printf "%a" Mediation.Conjunctive.pp_report report;
      (match
         Flogic.Fl_parser.parse_query
           ~signature:(Mediation.Mediator.signature med) goal
       with
      | Ok lits -> pp_answers lits answers
      | Error _ -> ());
      0
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"plan and run a federated conjunctive query over the demo sources")
    Term.(const run $ goal $ scale)

(* ------------------------------------------------------------------ *)
(* demo *)

let demo_cmd =
  let scale =
    Arg.(value & opt int 50 & info [ "scale" ] ~docv:"N" ~doc:"rows per class")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let no_index = Arg.(value & flag & info [ "no-index" ] ~doc:"disable the semantic index") in
  let no_push = Arg.(value & flag & info [ "no-pushdown" ] ~doc:"disable selection pushdown") in
  let no_lub = Arg.(value & flag & info [ "no-lub" ] ~doc:"use the whole-map root") in
  let run scale seed no_index no_push no_lub =
    let config =
      {
        Mediation.Mediator.default_config with
        Mediation.Mediator.use_semantic_index = not no_index;
        pushdown = not no_push;
        use_lub = not no_lub;
      }
    in
    let med =
      Neuro.Sources.standard_mediator ~config { Neuro.Sources.seed; scale }
    in
    match
      Mediation.Section5.calcium_binding_query med ~organism:"rat"
        ~transmitting_compartment:"parallel_fiber" ~ion:"calcium" ()
    with
    | Ok o ->
      Mediation.Section5.pp_outcome Format.std_formatter o;
      0
    | Error e ->
      prerr_endline e;
      1
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"the Section 5 calcium-binding-protein walk-through")
    Term.(const run $ scale $ seed $ no_index $ no_push $ no_lub)

(* ------------------------------------------------------------------ *)
(* maintain: a live update stream against the materialized mediator *)

let maintain_cmd =
  let scale =
    Arg.(value & opt int 50 & info [ "scale" ] ~docv:"N" ~doc:"rows per class")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let updates =
    Arg.(value & opt int 5 & info [ "updates" ] ~docv:"K"
           ~doc:"number of source updates to stream")
  in
  let goal =
    Arg.(value & opt string "X : spine, X[diameter ->> D], D > 0.6"
           & info [ "q"; "query" ] ~docv:"GOAL"
             ~doc:"query run before and after the update stream")
  in
  let assertion =
    Arg.(value & flag & info [ "assertion-mode" ]
           ~doc:"execute domain-map axioms as assertions (Section 4). The \
                 skolem rules negate through their own consequences, so \
                 the program is unstratified and updates fall back to \
                 full rebuilds; the default (integrity-constraint mode, \
                 inheritance off) keeps the materialization stratified \
                 and maintainable")
  in
  let run scale seed updates goal assertion =
    let config =
      if assertion then Mediation.Mediator.default_config
      else
        {
          Mediation.Mediator.default_config with
          Mediation.Mediator.dl_mode = Dl.Translate.Ic;
          inheritance = false;
        }
    in
    let med =
      Neuro.Sources.standard_mediator ~config { Neuro.Sources.seed; scale }
    in
    let ask label =
      match Mediation.Mediator.query_text med goal with
      | Error e ->
        prerr_endline e;
        false
      | Ok answers ->
        Printf.printf "%-32s %d answer(s)\n" label (List.length answers);
        true
    in
    let pp_action = function
      | Datalog.Maintain.Skipped -> "skipped"
      | Datalog.Maintain.Propagated -> "propagated"
      | Datalog.Maintain.Recomputed -> "recomputed"
    in
    let pp_report k (r : Datalog.Maintain.report) =
      Printf.printf
        "update %-2d +%d/-%d facts in %d round(s); %d/%d strata skipped; \
         %d predicate(s) touched\n"
        k r.Datalog.Maintain.added r.Datalog.Maintain.removed
        r.Datalog.Maintain.rounds r.Datalog.Maintain.skipped
        r.Datalog.Maintain.strata
        (List.length r.Datalog.Maintain.touched);
      List.iter
        (fun (s : Datalog.Maintain.stratum_report) ->
          if s.Datalog.Maintain.action <> Datalog.Maintain.Skipped then
            Printf.printf "  stratum %-3d %-10s +%d -%d\n"
              s.Datalog.Maintain.stratum
              (pp_action s.Datalog.Maintain.action)
              s.Datalog.Maintain.added s.Datalog.Maintain.removed)
        r.Datalog.Maintain.per_stratum
    in
    let spine k =
      let id = Logic.Term.sym (Printf.sprintf "live_spine_%d" k) in
      [
        Flogic.Molecule.Isa (id, Logic.Term.sym "spine_measure");
        Flogic.Molecule.Meth_val (id, "diameter", Logic.Term.float 0.9);
        Flogic.Molecule.Meth_val (id, "location", Logic.Term.sym "pyramidal_cell");
        Flogic.Molecule.Meth_val (id, "species", Logic.Term.str "rat");
      ]
    in
    let push k ~additions ~deletions =
      match
        Mediation.Mediator.update_source med ~source:"SYNAPSE" ~additions
          ~deletions ()
      with
      | Error e ->
        prerr_endline e;
        false
      | Ok None ->
        print_endline "no materialization live; store updated";
        true
      | Ok (Some r) ->
        pp_report k r;
        true
    in
    let ok = ref (ask "initial query (cold):" && ask "repeat query (cached):") in
    for k = 1 to updates do
      ok := !ok && push k ~additions:(spine k) ~deletions:[]
    done;
    if updates > 0 then
      (* retract the first streamed observation again: the DRed path *)
      ok := !ok && push (updates + 1) ~additions:[] ~deletions:(spine 1);
    ok := !ok && ask "query after updates (cold):" && ask "repeat query (cached):";
    let s = Mediation.Mediator.cache_stats med in
    Printf.printf
      "result cache: %d hit(s), %d miss(es), %d invalidation(s); %d \
       incremental pass(es), %d full rebuild(s)\n"
      s.Mediation.Mediator.hits s.Mediation.Mediator.misses
      s.Mediation.Mediator.invalidated s.Mediation.Mediator.maintained
      s.Mediation.Mediator.rebuilt;
    if !ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "maintain"
       ~doc:"stream source updates into a live materialization and report \
             maintenance + cache statistics")
    Term.(const run $ scale $ seed $ updates $ goal $ assertion)

(* ------------------------------------------------------------------ *)
(* health: the fault-tolerance runtime over the demo federation *)

let health_cmd =
  let scale =
    Arg.(value & opt int 20 & info [ "scale" ] ~docv:"N" ~doc:"rows per class")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"SRC=KIND[:N]"
          ~doc:
            "inject a deterministic fault plan on a demo source (SYNAPSE, \
             NCMIR, SENSELAB) before querying. KIND is one of: crash, \
             timeout, flaky[:K] (K transient errors, default 2), slow[:MS], \
             garble, truncate[:PERMILLE], stale. Repeatable.")
  in
  let revives =
    Arg.(
      value & opt_all string []
      & info [ "revive" ] ~docv:"SRC"
          ~doc:
            "after the degraded query, bring SRC back through the Figure-3 \
             re-registration path and query again. Repeatable.")
  in
  let goal =
    Arg.(value & opt string "X : spine, X[diameter ->> D], D > 0.6"
           & info [ "q"; "query" ] ~docv:"GOAL")
  in
  let run scale seed faults revives goal =
    let module F = Wrapper.Fault in
    let module M = Mediation.Mediator in
    let module R = Mediation.Runtime in
    let parse_fault spec =
      match String.index_opt spec '=' with
      | None -> Error (spec ^ ": expected SRC=KIND[:N]")
      | Some i ->
        let src = String.sub spec 0 i in
        let kind = String.sub spec (i + 1) (String.length spec - i - 1) in
        let kind, arg =
          match String.index_opt kind ':' with
          | None -> (kind, None)
          | Some j ->
            ( String.sub kind 0 j,
              int_of_string_opt
                (String.sub kind (j + 1) (String.length kind - j - 1)) )
        in
        let script events = Ok (src, F.Script events) in
        (match kind with
        | "crash" -> script [ { F.at = 1; fault = F.Crash } ]
        | "stale" -> script [ { F.at = 1; fault = F.Stale_caps } ]
        | "flaky" ->
          script
            (List.init
               (Option.value ~default:2 arg)
               (fun i -> { F.at = i + 1; fault = F.Transient "flaky" }))
        | "timeout" -> Ok (src, F.Always F.Timeout)
        | "slow" -> Ok (src, F.Always (F.Delay (Option.value ~default:80 arg)))
        | "garble" -> Ok (src, F.Always F.Garble)
        | "truncate" ->
          Ok (src, F.Always (F.Truncate (Option.value ~default:500 arg)))
        | k -> Error (spec ^ ": unknown fault kind " ^ k))
    in
    let med = Neuro.Sources.standard_mediator { Neuro.Sources.seed; scale } in
    let apply spec =
      match parse_fault spec with
      | Error e ->
        prerr_endline e;
        false
      | Ok (src, plan) -> (
        match M.set_fault_plan med ~source:src plan with
        | Ok () -> true
        | Error e ->
          prerr_endline e;
          false)
    in
    let pp_completeness (c : M.completeness) =
      Printf.printf "contributed: %s\n"
        (if c.M.contributed = [] then "(none)"
         else String.concat ", " c.M.contributed);
      List.iter
        (fun (s, why) -> Printf.printf "skipped:     %s (%s)\n" s why)
        c.M.skipped;
      if c.M.suspect <> [] then
        Printf.printf "suspect:     %s\n" (String.concat ", " c.M.suspect)
    in
    let ask label =
      match M.query_text med goal with
      | Error e ->
        prerr_endline e;
        false
      | Ok answers ->
        Printf.printf "%-24s %d answer(s)\n" label (List.length answers);
        pp_completeness (M.completeness med);
        true
    in
    if List.for_all apply faults then begin
      let ok = ref (ask "query:") in
      print_newline ();
      Printf.printf "%-10s %-9s %6s %6s %7s %6s %9s\n" "source" "breaker"
        "calls" "fails" "retries" "trips" "absorbed";
      List.iter
        (fun (name, (h : R.health)) ->
          Printf.printf "%-10s %-9s %6d %6d %7d %6d %9d%s\n" name
            (R.state_to_string h.R.state)
            h.R.calls h.R.failures h.R.retries h.R.trips h.R.absorbed
            (if h.R.quarantined then "  [quarantined]" else ""))
        (M.health med);
      let radius = Mediation.Lint.blast_radius med in
      List.iter
        (fun (s, _) ->
          match List.assoc_opt s radius with
          | Some (_ :: _ as preds) ->
            Printf.printf "losing %s can deplete: %s\n" s
              (String.concat ", " preds)
          | _ -> ())
        (M.completeness med).M.skipped;
      List.iter
        (fun src ->
          print_newline ();
          match M.revive_source med src with
          | Error e ->
            prerr_endline e;
            ok := false
          | Ok () ->
            Printf.printf "revived %s\n" src;
            ok := !ok && ask "query after revival:")
        revives;
      let totals = R.totals (M.runtime med) in
      Printf.printf
        "\nruntime: %d fetch(es), %d failure(s), %d retrie(s), %d trip(s); \
         %d degraded quer(ies); virtual clock %d ms\n"
        totals.R.total_calls totals.R.total_failures totals.R.total_retries
        totals.R.total_trips (M.degraded_queries med)
        (R.clock (M.runtime med));
      if !ok then 0 else 1
    end
    else 1
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"query the demo federation under injected faults and report \
             per-source breaker state, completeness and degradation")
    Term.(const run $ scale $ seed $ faults $ revives $ goal)

(* ------------------------------------------------------------------ *)
(* checkpoint / recover / wal-status: the durability surface over the
   demo federation. The store directory comes from --dir or the
   KIND_DURABLE_DIR environment variable ({!Datalog.Store.resolve}). *)

let dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "durability directory (checkpoint, write-ahead log and \
           federation state). Defaults to $(b,KIND_DURABLE_DIR).")

let store_of dir = Option.map (fun dir -> Datalog.Store.durability ~dir ()) dir

let demo_scale = Arg.(value & opt int 20 & info [ "scale" ] ~docv:"N" ~doc:"rows per class")
let demo_seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N")

let checkpoint_cmd =
  let updates =
    Arg.(value & opt int 0 & info [ "updates" ] ~docv:"K"
           ~doc:"source updates to stream (and log to the WAL) after the \
                 checkpoint, so a later $(b,recover) has a suffix to replay")
  in
  let run dir scale seed updates =
    let med =
      Neuro.Sources.standard_mediator
        ~config:
          {
            Mediation.Mediator.default_config with
            Mediation.Mediator.dl_mode = Dl.Translate.Ic;
            inheritance = false;
            durability = store_of dir;
          }
        { Neuro.Sources.seed; scale }
    in
    match Mediation.Mediator.checkpoint med with
    | Error e ->
      prerr_endline e;
      1
    | Ok bytes ->
      Printf.printf "checkpoint written (%d bytes)\n" bytes;
      let ok = ref true in
      for k = 1 to updates do
        let id = Logic.Term.sym (Printf.sprintf "ckpt_spine_%d" k) in
        match
          Mediation.Mediator.update_source med ~source:"SYNAPSE"
            ~additions:
              [
                Flogic.Molecule.Isa (id, Logic.Term.sym "spine_measure");
                Flogic.Molecule.Meth_val (id, "diameter", Logic.Term.float 0.7);
              ]
            ()
        with
        | Ok _ -> ()
        | Error e ->
          prerr_endline e;
          ok := false
      done;
      if updates > 0 then
        Printf.printf "streamed %d update(s) into the write-ahead log\n" updates;
      if !ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"materialize the demo federation and write a durable checkpoint \
             (engine snapshot + federation state, WAL compacted)")
    Term.(const run $ dir_t $ demo_scale $ demo_seed $ updates)

let recover_cmd =
  let goal =
    Arg.(value & opt string "X : spine, X[diameter ->> D], D > 0.6"
           & info [ "q"; "query" ] ~docv:"GOAL"
             ~doc:"query answered from the recovered materialization")
  in
  let run dir scale seed goal =
    (* the topology is re-registered from the same generator parameters;
       recover then adopts the checkpointed database instead of
       gathering from the sources *)
    let med =
      Neuro.Sources.standard_mediator
        ~config:
          {
            Mediation.Mediator.default_config with
            Mediation.Mediator.dl_mode = Dl.Translate.Ic;
            inheritance = false;
            durability = store_of dir;
          }
        { Neuro.Sources.seed; scale }
    in
    match Mediation.Mediator.recover med with
    | Error e ->
      prerr_endline e;
      1
    | Ok false ->
      print_endline "no checkpoint found (cold-start: run kindctl checkpoint first)";
      1
    | Ok true -> (
      print_endline "recovered from checkpoint + WAL";
      let s = Mediation.Mediator.cache_stats med in
      Printf.printf "rebuilds since creation: %d (0 = no cold rebuild ran)\n"
        s.Mediation.Mediator.rebuilt;
      match Mediation.Mediator.query_text med goal with
      | Error e ->
        prerr_endline e;
        1
      | Ok answers ->
        Printf.printf "%-24s %d answer(s)\n" "query after recovery:"
          (List.length answers);
        0)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"rebuild the demo federation from a durable checkpoint and its \
             WAL suffix, then answer a query")
    Term.(const run $ dir_t $ demo_scale $ demo_seed $ goal)

let wal_status_cmd =
  let run dir =
    match Datalog.Store.resolve (store_of dir) with
    | None ->
      prerr_endline "wal-status: pass --dir or set KIND_DURABLE_DIR";
      1
    | Some d ->
      let fs = d.Datalog.Store.fs in
      let ckpt = Datalog.Store.checkpoint_file in
      let wal = Datalog.Store.wal_file in
      let ckpt_gen = ref None in
      (match Datalog.Snapshot.read fs ~path:ckpt with
      | Error e -> Printf.printf "checkpoint: unreadable (%s)\n" e
      | Ok None -> print_endline "checkpoint: absent"
      | Ok (Some snap) ->
        let gen = Datalog.Store.generation snap in
        ckpt_gen := Some gen;
        Printf.printf "checkpoint: %d bytes, %d facts (%d base), generation %d\n"
          (fs.Codec.size ckpt)
          (Datalog.Database.cardinal snap.Datalog.Snapshot.db)
          (Datalog.Database.cardinal snap.Datalog.Snapshot.edb)
          gen);
      (match Datalog.Wal.replay fs ~path:wal with
      | Error e -> Printf.printf "wal: unreadable (%s)\n" e
      | Ok (gen, entries, tail) ->
        Printf.printf "wal: %d bytes, %d batch(es), generation %d%s%s\n"
          (fs.Codec.size wal) (List.length entries) gen
          (match tail with
          | Codec.Clean -> ""
          | Codec.Torn { at; reason } ->
            Printf.sprintf ", torn tail at byte %d (%s) — dropped" at reason)
          (match !ckpt_gen with
          | Some g when g <> gen ->
            " — STALE: generation mismatch with checkpoint, ignored on \
             recovery"
          | _ -> ""));
      (match Mediation.Durable.load fs with
      | Error e -> Printf.printf "federation: unreadable (%s)\n" e
      | Ok None -> print_endline "federation: absent"
      | Ok (Some st) ->
        Printf.printf
          "federation: clock %d ms, %d degraded quer(ies), %d source(s)\n"
          st.Mediation.Durable.clock st.Mediation.Durable.degraded
          (List.length st.Mediation.Durable.sources);
        List.iter
          (fun (s : Mediation.Durable.source_state) ->
            Printf.printf "  %-10s %-9s %d call(s), %d failure(s)%s%s\n"
              s.Mediation.Durable.name
              (Mediation.Runtime.state_to_string s.Mediation.Durable.state)
              s.Mediation.Durable.calls s.Mediation.Durable.failures
              (if s.Mediation.Durable.quarantined then "  [quarantined]"
               else "")
              (if s.Mediation.Durable.channel_stale then "  [stale caps]"
               else ""))
          st.Mediation.Durable.sources);
      0
  in
  Cmd.v
    (Cmd.info "wal-status"
       ~doc:"inspect a durability directory: checkpoint size, WAL batches \
             and torn-tail state, federation breaker ledger")
    Term.(const run $ dir_t)

let () =
  let info =
    Cmd.info "kindctl" ~version:"1.0.0"
      ~doc:"model-based mediation with domain maps (KIND)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd; check_cmd; lint_cmd; contain_cmd; cost_cmd;
            provenance_cmd;
            explain_cmd;
            translate_cmd; dmap_cmd; classify_cmd; demo_cmd; query_cmd;
            maintain_cmd; health_cmd;
            checkpoint_cmd; recover_cmd; wal_status_cmd;
          ]))
