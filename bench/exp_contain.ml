(* CONTAIN — semantic rule minimization: materialize the join-kernel
   workloads (plus one workload whose rules carry redundant body atoms
   the containment analysis can drop) as written and as rewritten by
   [Contain.minimize], check the answers agree, and record how long
   the containment analysis itself takes. Writes
   BENCH_contain.json; [smoke] is the @contain-smoke regression gate —
   minimized plans must never be more than 1.1x slower than the
   untouched ones, and the analysis must stay under 10 ms per
   workload. *)

open Kind
module Engine = Datalog.Engine
module Contain = Analysis.Contain

let v = Logic.Term.var
let s = Logic.Term.sym

let fact p args = Logic.Rule.fact (Logic.Atom.make p args)
let rule h b = Logic.Rule.make h b
let atom p args = Logic.Atom.make p args
let pos = Logic.Literal.pos

(* ------------------------------------------------------------------ *)
(* Workload: joins written with redundant body atoms. [a(X, W)] folds
   onto [a(X, Y)] (W -> Y) and [b(Y, U)] onto [b(Y, Z)] (U -> Z), so
   the minimized rule does two joins where the original does four —
   the gap minimization is supposed to close. The join-kernel
   workloads (tc-deep, dm-closure, ivd-join) are already minimal, so
   on them the rewrite must leave the plans as fast as before. *)

let redundant_rules =
  [
    rule
      (atom "big" [ v "X"; v "Z" ])
      [
        pos "a" [ v "X"; v "Y" ];
        pos "a" [ v "X"; v "W" ];
        pos "b" [ v "Y"; v "Z" ];
        pos "b" [ v "Y"; v "U" ];
      ];
    rule
      (atom "wide" [ v "X" ])
      [ pos "big" [ v "X"; v "Z" ]; pos "big" [ v "X"; v "Z2" ] ];
  ]

let redundant_join ~rows =
  let classes = 60 in
  let a =
    List.init rows (fun i ->
        fact "a"
          [ s (Printf.sprintf "x%d" (i mod classes)); s (Printf.sprintf "y%d" i) ])
  in
  let b =
    List.init rows (fun i ->
        fact "b"
          [ s (Printf.sprintf "y%d" i); s (Printf.sprintf "z%d" (i mod 7)) ])
  in
  Datalog.Program.make_exn (redundant_rules @ a @ b)

let workloads ~full =
  Exp_join.workloads ~full
  @ [ ("redundant-join", redundant_join ~rows:(if full then 6_000 else 1_200)) ]

(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  base_ms : float;
  min_ms : float;
  analysis_ms : float;
  atoms_dropped : int;
  derived : int;
}

let measure_pair (name, p) =
  let rules = Datalog.Program.rules p in
  (* the analysis is timed once, cold: build the context (harvesting
     ground sub facts) and minimize every rule *)
  let t0 = Unix.gettimeofday () in
  let minimized = Contain.minimize (Contain.make_ctx ~rules ()) rules in
  let analysis_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let body_atoms rs =
    List.fold_left (fun n (r : Logic.Rule.t) -> n + List.length r.Logic.Rule.body) 0 rs
  in
  let base_ms, rep_b = Exp_join.measure ~config:Engine.default_config p in
  let min_ms, rep_m =
    Exp_join.measure ~config:Engine.default_config
      (Datalog.Program.make_exn minimized)
  in
  if rep_b.Engine.derived <> rep_m.Engine.derived then
    failwith
      (Printf.sprintf
         "contain bench: minimized and original programs disagree on %s (%d \
          vs %d derived)"
         name rep_b.Engine.derived rep_m.Engine.derived);
  {
    name;
    base_ms;
    min_ms;
    analysis_ms;
    atoms_dropped = body_atoms rules - body_atoms minimized;
    derived = rep_m.Engine.derived;
  }

let run () =
  Util.header
    "CONTAIN  semantic rule minimization: containment-minimized vs original \
     programs";
  let rows = List.map measure_pair (workloads ~full:true) in
  Util.table
    ~columns:
      [
        "workload"; "derived"; "base-ms"; "minimized-ms"; "ratio";
        "analysis-ms"; "atoms-dropped";
      ]
    (List.map
       (fun r ->
         [
           r.name;
           Util.fint r.derived;
           Util.fms r.base_ms;
           Util.fms r.min_ms;
           Printf.sprintf "%.2fx" (r.min_ms /. r.base_ms);
           Util.fms r.analysis_ms;
           string_of_int r.atoms_dropped;
         ])
       rows);
  let fields =
    [
      ( "experiment",
        "\"semantic rule minimization: containment-minimized programs vs \
         originals\"" );
      ( "protocol",
        "\"fastest of 5 repetitions per program; the minimized program is \
         built once, outside the timed runs; analysis (context build + \
         minimization) timed once, cold\"" );
    ]
    @ List.concat_map
        (fun r ->
          let k = Exp_join.key r.name in
          [
            (k ^ "_base_ms", Printf.sprintf "%.3f" r.base_ms);
            (k ^ "_minimized_ms", Printf.sprintf "%.3f" r.min_ms);
            (k ^ "_ratio", Printf.sprintf "%.3f" (r.min_ms /. r.base_ms));
            (k ^ "_analysis_ms", Printf.sprintf "%.3f" r.analysis_ms);
            (k ^ "_atoms_dropped", string_of_int r.atoms_dropped);
            (k ^ "_derived", string_of_int r.derived);
          ])
        rows
  in
  Exp_join.write_json "BENCH_contain.json" fields;
  Util.note "wrote BENCH_contain.json"

(* ------------------------------------------------------------------ *)
(* Smoke gate (`dune build @contain-smoke`): self-contained — both
   configurations run here and now, so no committed reference is
   needed. Minimization must stay within 1.1x of the untouched run
   everywhere (with a 1 ms floor so micro-jitter on trivial workloads
   cannot fail the gate), the analysis itself must finish in under
   10 ms per workload, and the redundant workload must actually have
   atoms dropped. *)

let smoke () =
  Util.header
    "CONTAIN-SMOKE  containment-minimized vs original, trimmed workloads";
  let rows = List.map measure_pair (workloads ~full:false) in
  let failures = ref 0 in
  List.iter
    (fun r ->
      let limit = (1.1 *. r.base_ms) +. 1.0 in
      let ok_time = r.min_ms <= limit in
      let ok_analysis = r.analysis_ms < 10.0 in
      if not ok_time then incr failures;
      if not ok_analysis then incr failures;
      Printf.printf "  %-14s base %s  minimized %s  limit %s  analysis %s  %s\n"
        r.name (Util.fms r.base_ms) (Util.fms r.min_ms) (Util.fms limit)
        (Util.fms r.analysis_ms)
        (if ok_time && ok_analysis then "ok"
         else if not ok_time then "REGRESSION"
         else "ANALYSIS-TOO-SLOW"))
    rows;
  (match List.find_opt (fun r -> r.name = "redundant-join") rows with
  | Some r when r.atoms_dropped = 0 ->
    Printf.printf "  redundant-join: no atoms dropped (expected > 0)\n";
    incr failures
  | _ -> ());
  if !failures > 0 then begin
    Printf.printf "contain-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  Util.note "contain-smoke passed"
