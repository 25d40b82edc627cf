(* Shared helpers for the benchmark harness: wall-clock timing with
   repetitions, and aligned table printing. *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, (Unix.gettimeofday () -. t0) *. 1000.0)

(* median of [reps] runs, milliseconds *)
let time_median ?(reps = 5) f =
  let samples =
    List.init reps (fun _ -> snd (time_once f)) |> List.sort compare
  in
  List.nth samples (reps / 2)

(* median of [reps] runs of [f] on a fresh [setup ()] each,
   milliseconds. [setup] and a full major collection run outside the
   clock, so no run is charged for collecting what the previous ones
   left behind. *)
let time_median_fresh ?(reps = 5) setup f =
  let samples =
    List.init reps (fun _ ->
        let x = setup () in
        Gc.full_major ();
        snd (time_once (fun () -> f x)))
    |> List.sort compare
  in
  List.nth samples (reps / 2)

(* minimum of [reps] runs, milliseconds — the robust estimator for
   pass/fail gates: scheduler noise only ever adds time, so the min is
   the closest sample to the true cost on a loaded CI box *)
let time_min ?(reps = 5) f =
  List.init reps (fun _ -> snd (time_once f))
  |> List.fold_left min infinity

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let table ~columns rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let fms ms = Printf.sprintf "%.2f" ms
let fint = string_of_int
let ffloat f = Printf.sprintf "%.2f" f

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(* ------------------------------------------------------------------ *)
(* BENCH_*.json emission. Creates missing parent directories instead of
   dying with a bare [Sys_error], and names the offending path when the
   file still cannot be opened (e.g. the parent exists but is a file). *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_json path fields =
  mkdir_p (Filename.dirname path);
  let oc =
    try open_out path
    with Sys_error e ->
      failwith
        (Printf.sprintf "write_json: cannot open %S for writing (%s)" path e)
  in
  output_string oc "{\n";
  List.iteri
    (fun i (k, value) ->
      Printf.fprintf oc "  \"%s\": %s%s\n" k value
        (if i = List.length fields - 1 then "" else ","))
    fields;
  output_string oc "}\n";
  close_out oc
