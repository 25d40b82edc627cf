(* The run shape every workload shares.

   Untraced (--trace 0): timed set-ups (their median is setup_s), one
   closed-loop phase of --seconds on the last federation,
   then the workload's epilogue (its end-of-run checks). Traced
   (--trace 1): an
   untraced phase of half the time on one federation and a traced phase
   of the other half on a fresh one, whose set-up and epilogue are traced
   too; the ops/s difference between the halves is the tracing
   overhead. *)

open Common

type 'fed t = {
  name : string;
  config : (string * string) list;
  tails : float * float;
      (** the quantiles lead_tail_ms and flq_tail_ms report (README.md
          says why each) *)
  setup : seed:int -> int -> 'fed;
  mediator : 'fed -> Mediator.t;
  phase : 'fed -> seed:int -> seconds:float -> ledger -> Layers.t -> phase;
  epilogue : 'fed -> ledger -> Layers.t -> (string * string) list;
}

let ops_per_s p =
  if p.loop.elapsed > 0.0 then float_of_int (p.loop.steps * p.ops_per_step) /. p.loop.elapsed else 0.0

(* The end-to-end estimators: throughput and medians are the median over
   the run's windows of each window's value; tails come from every
   sample of the run. *)
let windowed_ops_per_s p =
  Stats.median_of
    (List.map (fun (n, ms) -> float_of_int (n * p.ops_per_step) /. (ms /. 1000.0)) p.loop.windows)

let windowed_median p s =
  Stats.windowed_median s ~t0:p.loop.started ~window_ms:p.loop.window_ms
    ~windows:(List.length p.loop.windows)

let trace_dir = ".medbench_out"

let write_trace w (a : args) ~layers spans =
  if not (Sys.file_exists trace_dir) then Unix.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" w.name a.seed) in
  let header =
    ("workload", Printf.sprintf "%S" w.name)
    :: ("seed", string_of_int a.seed)
    :: List.map (fun (m : metric) -> (m.name, Printf.sprintf "%.6g" m.value)) layers
  in
  Trace.write_json path ~header spans;
  path

let run w (a : args) =
  let l = ledger () in
  if not a.trace then begin
    let fed, setup_s, n_setups = timed_setups (fun k -> w.setup ~seed:a.seed k) in
    Gc.full_major ();
    let acc = Layers.create () in
    let p = w.phase fed ~seed:a.seed ~seconds:a.seconds l acc in
    let notes = w.epilogue fed l acc in
    {
      attempted = l.attempted;
      failed = l.failed;
      e2e =
        [
          metric "setup_s" "s" setup_s;
          metric "ops_per_s" "1/s" (windowed_ops_per_s p);
          metric "lead_p50_ms" "ms" (windowed_median p p.lead);
          metric "lead_tail_ms" "ms" (Stats.quantile p.lead (fst w.tails));
          metric "flq_p50_ms" "ms" (windowed_median p p.flq);
          metric "flq_tail_ms" "ms" (Stats.quantile p.flq (snd w.tails));
          metric "heap_live_mb" "MB" p.loop.heap_mb;
        ];
      layers = [];
      info =
        w.config
        @ [
            ("set-ups", string_of_int n_setups);
            ("steps per window", String.concat " " (List.map (fun (n, _) -> string_of_int n) p.loop.windows));
            ( "top heap",
              Printf.sprintf "%.1f MB"
                (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6) );
            ("tails", Printf.sprintf "lead p%g, flq p%g" (100.0 *. fst w.tails) (100.0 *. snd w.tails));
            ( "samples",
              Printf.sprintf "%d ops, lead %d, flq %d" (p.loop.steps * p.ops_per_step)
                p.lead.Stats.n p.flq.Stats.n );
          ]
        @ p.notes @ notes
        @ List.map (fun r -> ("failure", r)) (List.rev l.reasons);
    }
  end
  else begin
    let half = a.seconds /. 2.0 in
    let untraced =
      let fed = w.setup ~seed:a.seed 0 in
      Gc.full_major ();
      w.phase fed ~seed:a.seed ~seconds:half l (Layers.create ())
    in
    Gc.full_major ();
    Trace.reset ();
    Trace.enabled := true;
    let fed = w.setup ~seed:a.seed 1 in
    Gc.full_major ();
    let acc = Layers.create () in
    let p = w.phase fed ~seed:a.seed ~seconds:half l acc in
    let notes = w.epilogue fed l acc in
    Layers.record_rebuild_layers acc (w.mediator fed);
    Trace.enabled := false;
    let spans = !Trace.recorded in
    let base = ops_per_s untraced in
    let overhead_pct = if base > 0.0 then 100.0 *. (1.0 -. (ops_per_s p /. base)) else 0.0 in
    let coverage = Trace.coverage spans in
    List.iter
      (fun (kind, c) ->
        check l (c >= 0.9 && c <= 1.1)
          (Printf.sprintf "%s: child spans cover %.1f%% of the operation" kind (100.0 *. c)))
      coverage;
    let layers = Layers.metrics acc ~spans ~overhead_pct in
    let path = write_trace w a ~layers spans in
    {
      attempted = l.attempted;
      failed = l.failed;
      e2e = [];
      layers;
      info =
        w.config
        @ [
            ("ops_per_s untraced / traced", Printf.sprintf "%.2f / %.2f" base (ops_per_s p));
            ("spans", Printf.sprintf "%d written to %s" (List.length spans) path);
          ]
        @ List.map
            (fun (kind, c) -> ("coverage " ^ kind, Printf.sprintf "%.3f" c))
            coverage
        @ p.notes @ notes
        @ List.map (fun r -> ("failure", r)) (List.rev l.reasons);
    }
  end
