(* Wall-clock spans recorded by the benchmark around public library calls.

   Every timing in the benchmark reads one clock: CLOCK_MONOTONIC through
   bechamel's monotonic_clock stub. Spans are kept in memory (newest
   first) and written out when the run ends; with tracing off, [span]
   costs one branch. *)

let now () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type span = {
  id : int;
  parent : int;  (** 0 for an operation's root span *)
  op : int;  (** the operation the span belongs to; 0 outside operations *)
  name : string;
  start : int64;
  stop : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref 0
let current_op = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        recorded :=
          { id; parent; op = !current_op; name; start; stop = now () }
          :: !recorded;
        current := parent)
      f
  end

(* The root span of one client operation, named ["op." ^ kind]. *)
let op kind f =
  if not !enabled then f ()
  else begin
    current_op := !next_id + 1;
    Fun.protect ~finally:(fun () -> current_op := 0) (fun () -> span ("op." ^ kind) f)
  end

let reset () =
  recorded := [];
  next_id := 0;
  current := 0;
  current_op := 0

let duration_ms s = ms_between s.start s.stop

(* Per span name: number of spans and their summed duration (ms). *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, ms = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0) in
      Hashtbl.replace tbl s.name (n + 1, ms +. duration_ms s))
    spans;
  tbl

let mean_ms tbl name =
  match Hashtbl.find_opt tbl name with Some (n, ms) -> ms /. float_of_int n | None -> 0.0

(* For each operation kind: the summed duration of the root spans'
   direct children over the summed duration of the root spans. 1.0
   means the recorded layers account for the whole operation. *)
let coverage spans =
  let roots = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent = 0 && s.op <> 0 then Hashtbl.replace roots s.id s) spans;
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if Hashtbl.mem roots s.parent then
        Hashtbl.replace child_ms s.parent
          (duration_ms s
          +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.0))
    spans;
  let by_kind = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id root ->
      let c = Option.value (Hashtbl.find_opt child_ms id) ~default:0.0 in
      let w, cs = Option.value (Hashtbl.find_opt by_kind root.name) ~default:(0.0, 0.0) in
      Hashtbl.replace by_kind root.name (w +. duration_ms root, cs +. c))
    roots;
  Hashtbl.fold (fun kind (w, c) acc -> (kind, if w > 0.0 then c /. w else 1.0) :: acc) by_kind []
  |> List.sort compare

let write_json path ~header spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\n";
  List.iter (fun (k, v) -> Printf.fprintf oc "  %S: %s,\n" k v) header;
  output_string oc "  \"spans\": [\n";
  let t0 = match List.rev spans with s :: _ -> s.start | [] -> 0L in
  let last = List.length spans - 1 in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "    {\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \"start_us\": %.3f, \"dur_us\": %.3f}%s\n"
        s.id s.parent s.op s.name
        (Int64.to_float (Int64.sub s.start t0) /. 1e3)
        (duration_ms s *. 1e3)
        (if i = last then "" else ","))
    (List.rev spans);
  output_string oc "  ]\n}\n"
