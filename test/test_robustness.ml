(* Robustness tests: parser fuzzing (never crash, always Ok/Error),
   engine failure injection (divergence guards, depth bounds), and
   wire-format adversarial inputs. *)

open Logic
open Flogic

(* -------------------------------------------------------------------- *)
(* Parser fuzzing: random token soup must yield Ok or Error, never an
   unexpected exception. *)

let token_soup =
  let open QCheck.Gen in
  let word =
    oneofl
      [
        "p"; "q"; "X"; "Y"; "spine"; "42"; "3.14"; ":-"; "?-"; "."; ","; "(";
        ")"; "["; "]"; "{"; "}"; ":"; "::"; "->"; "->>"; "=>"; "not"; "is";
        "<"; ">"; "="; "=/="; "count"; ";"; "&"; "'quoted atom'"; "\"str\"";
        "%comment"; "+"; "*";
      ]
  in
  map (String.concat " ") (list_size (int_bound 40) word)

let prop_parser_total =
  QCheck.Test.make ~name:"parser totality on token soup" ~count:500
    (QCheck.make ~print:(fun s -> s) token_soup)
    (fun src ->
      match Fl_parser.parse_program src with
      | Ok _ | Error _ -> true)

let char_soup =
  QCheck.Gen.(map (String.concat "") (list_size (int_bound 60) (map (String.make 1) printable)))

let prop_parser_total_chars =
  QCheck.Test.make ~name:"parser totality on char soup" ~count:500
    (QCheck.make ~print:(fun s -> s) char_soup)
    (fun src ->
      match Fl_parser.parse_program src with
      | Ok _ | Error _ -> true)

let prop_xml_parser_total =
  QCheck.Test.make ~name:"xml parser totality" ~count:500
    (QCheck.make ~print:(fun s -> s)
       QCheck.Gen.(
         map (String.concat "")
           (list_size (int_bound 40)
              (oneofl [ "<"; ">"; "/"; "a"; "b"; "="; "\""; " "; "&"; "amp;"; "!"; "-" ]))))
    (fun src ->
      match Xmlkit.Parse.parse src with Ok _ | Error _ -> true)

(* Parse-print-parse stability on valid programs. *)
let prop_fl_reparse =
  let program =
    QCheck.Gen.oneofl
      [
        "a :: b. x : a.";
        "p(X) :- X : a, X[m ->> V], V > 3.";
        "w(X) : ic :- X : c, not r(X, X).";
        "big(B, N) :- N = count{X [B]; r(X, B)}, N >= 2.";
        "d(Y) :- v(X), Y is X * 2 + 1.";
      ]
  in
  QCheck.Test.make ~name:"parse-print-parse stability" ~count:50
    (QCheck.make ~print:(fun s -> s) program)
    (fun src ->
      match Fl_parser.parse_program src with
      | Error _ -> false
      | Ok p1 -> (
        let printed =
          String.concat "\n"
            (List.map Molecule.rule_to_string p1.Fl_parser.rules)
        in
        match Fl_parser.parse_program printed with
        | Error _ -> false
        | Ok p2 ->
          List.map Molecule.rule_to_string p2.Fl_parser.rules
          = List.map Molecule.rule_to_string p1.Fl_parser.rules))

(* -------------------------------------------------------------------- *)
(* Engine failure injection *)

let v = Term.var
let s = Term.sym

let test_max_rounds_guard () =
  (* a diverging skolem chain with a huge depth bound must hit the
     rounds guard instead of spinning forever *)
  let p =
    Datalog.Program.make_exn
      [
        Rule.fact (Atom.make "p" [ s "a" ]);
        Rule.make
          (Atom.make "p" [ Term.app "f" [ v "X" ] ])
          [ Literal.pos "p" [ v "X" ] ];
      ]
  in
  match
    Datalog.Engine.materialize
      ~config:
        {
          Datalog.Engine.default_config with
          Datalog.Engine.max_term_depth = 1_000_000;
          max_rounds = 20;
        }
      p (Datalog.Database.create ())
  with
  | exception Datalog.Eval.Diverged _ -> ()
  | _ -> Alcotest.fail "expected rounds guard to fire"

let test_depth_bound_tightness () =
  (* depth bound k keeps exactly the terms of depth <= k *)
  let p =
    Datalog.Program.make_exn
      [
        Rule.fact (Atom.make "p" [ s "a" ]);
        Rule.make
          (Atom.make "p" [ Term.app "f" [ v "X" ] ])
          [ Literal.pos "p" [ v "X" ] ];
      ]
  in
  List.iter
    (fun k ->
      let db =
        Datalog.Engine.materialize
          ~config:{ Datalog.Engine.default_config with Datalog.Engine.max_term_depth = k }
          p (Datalog.Database.create ())
      in
      Alcotest.(check int) (Printf.sprintf "depth %d" k) k
        (Datalog.Database.count db "p"))
    [ 1; 3; 6 ]

let test_unsafe_rule_rejected () =
  (match Datalog.Program.make [ Rule.make (Atom.make "p" [ v "X" ]) [] ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound head var accepted");
  match
    Datalog.Program.make
      [ Rule.make (Atom.make "p" [ v "X" ]) [ Literal.cmp Literal.Eq (v "X") (v "Y") ] ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "floating equality accepted"

let contains_substring haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_fl_compile_error_surfaces () =
  let t =
    Fl_program.make
      [ Molecule.rule (Molecule.Rel_val ("nope", [ ("a", s "x") ])) [] ]
  in
  match Fl_program.compile t with
  | Error e ->
    Alcotest.(check bool) "mentions relation" true (contains_substring e "nope")
  | Ok _ -> Alcotest.fail "undeclared relation accepted"

(* -------------------------------------------------------------------- *)
(* Breaker transitions under a scripted outage: the golden transcript.
   Everything below is virtual time, so the trace is exact: three
   exhausted fetches (3 calls + 50 + 100 ms backoff = 153 ms each) trip
   the breaker at t=459; riding out the 1000 ms cooldown lands the
   half-open probe at t=1460; its success closes at t=1461. *)

let test_breaker_golden_transcript () =
  let module F = Wrapper.Fault in
  let module R = Mediation.Runtime in
  let schema =
    Gcm.Schema.make ~name:"FRAGILE"
      ~classes:[ Gcm.Schema.class_def "c" ~methods:[ ("m", "number") ] ]
      ()
  in
  let src =
    Wrapper.Source.make ~name:"FRAGILE" ~schema
      ~data:[ Molecule.Isa (s "o1", s "c") ]
      ()
  in
  let ch =
    F.wrap
      ~plan:
        (F.Script
           (List.init 9 (fun i -> { F.at = i + 1; fault = F.Transient "down" })))
      src
  in
  let rt = R.create () in
  let fetch () = R.fetch rt ch (fun _ -> ()) in
  let show_state () =
    R.state_to_string (R.health rt "FRAGILE").R.state
  in
  (* three exhausted fetches trip the breaker *)
  (match fetch () with Error _ -> () | Ok () -> Alcotest.fail "fetch 1 must fail");
  Alcotest.(check string) "still closed after one failure" "closed" (show_state ());
  (match fetch () with Error _ -> () | Ok () -> Alcotest.fail "fetch 2 must fail");
  (match fetch () with Error _ -> () | Ok () -> Alcotest.fail "fetch 3 must fail");
  Alcotest.(check string) "breaker open" "open" (show_state ());
  (* while open: fast-fail, no source contact *)
  let calls_before = F.calls ch in
  (match fetch () with Error _ -> () | Ok () -> Alcotest.fail "open must fail fast");
  Alcotest.(check int) "open does not touch the source" calls_before (F.calls ch);
  (* ride out the cooldown; the half-open probe succeeds and closes *)
  R.advance rt 1001;
  (match fetch () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "probe must close the breaker: %s" e);
  Alcotest.(check string) "closed again" "closed" (show_state ());
  let golden =
    [ (459, "open"); (1460, "half-open"); (1461, "closed") ]
  in
  Alcotest.(check (list (pair int string)))
    "golden transition transcript" golden
    (List.map
       (fun (t, st) -> (t, R.state_to_string st))
       (R.transitions (R.health rt "FRAGILE")));
  let h = R.health rt "FRAGILE" in
  Alcotest.(check int) "9 failed calls + 1 probe" 9 h.R.failures;
  Alcotest.(check int) "6 retries" 6 h.R.retries;
  Alcotest.(check int) "one trip" 1 h.R.trips

(* -------------------------------------------------------------------- *)
(* One explicit seed threads every QCheck generator in this file: set
   KIND_QCHECK_SEED to replay a failure run for run. *)

let qcheck_seed =
  match Sys.getenv_opt "KIND_QCHECK_SEED" with
  | Some sd -> ( try int_of_string (String.trim sd) with _ -> 0)
  | None -> 0

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

let suites =
  [
    ( Printf.sprintf "robustness.parsers [seed %d]" qcheck_seed,
      [
        to_alcotest prop_parser_total;
        to_alcotest prop_parser_total_chars;
        to_alcotest prop_xml_parser_total;
        to_alcotest prop_fl_reparse;
      ] );
    ( "robustness.engine",
      [
        Alcotest.test_case "rounds guard" `Quick test_max_rounds_guard;
        Alcotest.test_case "depth bound tight" `Quick test_depth_bound_tightness;
        Alcotest.test_case "unsafe rules rejected" `Quick test_unsafe_rule_rejected;
        Alcotest.test_case "compile errors surface" `Quick test_fl_compile_error_surfaces;
        Alcotest.test_case "breaker golden transcript" `Quick
          test_breaker_golden_transcript;
      ] );
  ]
