(* medbench: the end-to-end mediator benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the environment, every metric by name with its unit, and as
   its last line one JSON object: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 the per-layer ones from a traced run. Exits 1 when an
   oracle check failed, 2 on bad arguments or a refused environment. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload s5-read|live-update|rebuild-churn --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 ->
    { workload = !workload; seed; seconds; trace }
  | _ -> usage ()

let () =
  let a = parse_args () in
  (* A mediator configured with durability = None falls back to this
     variable, which would add fsyncs to workloads meant to run without
     durability. *)
  (match Sys.getenv_opt "KIND_DURABLE_DIR" with
  | Some d when d <> "" ->
    prerr_endline "medbench: refusing to run with KIND_DURABLE_DIR set";
    exit 2
  | _ -> ());
  let run =
    match a.workload with
    | "s5-read" -> fun () -> Harness.run S5_read.workload a
    | "live-update" -> fun () -> Harness.run Live_update.workload a
    | "rebuild-churn" -> fun () -> Harness.run Rebuild_churn.workload a
    | _ -> usage ()
  in
  let r = Fun.protect ~finally:cleanup_scratch run in
  let env =
    [
      ("workload", a.workload);
      ("seed", string_of_int a.seed);
      ("seconds", Printf.sprintf "%g" a.seconds);
      ("trace", if a.trace then "1" else "0");
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("domains", string_of_int (Kind.Pool.env_domains ()));
      ("client", "one closed-loop client in one process");
      ("clock", "bechamel.monotonic_clock (CLOCK_MONOTONIC)");
      ( "estimator",
        Printf.sprintf
          "ops_per_s and *_p50_ms: median over the run's 6 windows of each window's value; \
         *_tail_ms: a quantile of all samples (see tails); setup_s: median of %d-%d set-ups; \
         heap_live_mb: live heap after step %d"
          setups_min setups_max heap_probe_step );
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "%-28s %s\n" k v) (env @ r.info);
  let metrics = if a.trace then r.layers else r.e2e in
  List.iter (fun m -> Printf.printf "%-34s %14.4f %s\n" m.name m.value m.unit) metrics;
  Printf.printf "%-34s %14.4f\n" "failed_frac"
    (if r.attempted = 0 then 1.0 else float_of_int r.failed /. float_of_int r.attempted);
  let correct = r.failed = 0 && r.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (Printf.sprintf "%.17g" m.value) m.unit)
          metrics));
  exit (if correct then 0 else 1)
