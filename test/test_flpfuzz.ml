(* Totality fuzzing of the F-logic surface parser: on damaged input,

     Fl_parser.parse_program, parse_query and parse_term
       return Ok or Error and never raise

   for three input families — byte-mutated sample programs
   (samples/*.flp), random strings over the lexer's alphabet, and
   deeply nested terms, molecules and aggregates (complete or cut
   short). Seeded via KIND_QCHECK_SEED like the other QCheck suites. *)

module P = Flogic.Fl_parser

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let samples =
  lazy
    (List.map Test_absint.read_sample
       [ "spines.flp"; "broken.flp"; "undefined.flp" ])

(* every byte the lexer branches on, plus a few it rejects *)
let alphabet =
  "()[]{},;.:-?>=<!@%/*'\"\\&+_ \t\n\r0123456789aAzZ\000\255~#$^|`"

let byte_gen =
  QCheck.Gen.(
    map (String.get alphabet) (int_bound (String.length alphabet - 1)))

(* the XML fuzzer's byte mutations, over the lexer's alphabet *)
let mutation_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun i c -> Test_xmlfuzz.Replace (i, c)) nat byte_gen);
      (4, map2 (fun i c -> Test_xmlfuzz.Insert (i, c)) nat byte_gen);
      (3, map (fun i -> Test_xmlfuzz.Delete i) nat);
      (1, map (fun i -> Test_xmlfuzz.Truncate_at i) nat);
    ]

let mutated_gen =
  let open QCheck.Gen in
  map3
    (fun which cut muts ->
      let src = List.nth (Lazy.force samples) which in
      (* a mutation anywhere in a 4 KB file mostly lands in a comment
         or a fact; a random suffix puts the damage near the front of
         the statements too *)
      let n = String.length src in
      let src = String.sub src (cut mod n) (n - (cut mod n)) in
      List.fold_left Test_xmlfuzz.apply_mutation src muts)
    (int_bound 2) nat
    (list_size (int_range 1 8) mutation_gen)

(* token-sized pieces: whatever a lexer would emit, glued at random *)
let piece_gen =
  QCheck.Gen.oneofl
    [
      "("; ")"; "["; "]"; "{"; "}"; ","; ";"; "."; ":"; "::"; ":-"; "?-";
      "->"; "->>"; "=>"; "&"; "not "; " is "; "@relation "; "@rel"; "=";
      "!="; "<"; ">"; ">="; "=<"; "=/="; "+"; "-"; "*"; "/"; "X"; "_"; "_Y";
      "a"; "spine"; "count"; "sum"; "avg"; "max"; "0"; "42"; "2.5"; "1.";
      "99999999999999999999"; "1.2.3"; "'q r'"; "'"; "\"s\""; "\""; "\\";
      "% c\n"; "// c\n"; "/*"; "*/"; " "; "\n"; "ic"; "?"; "!";
    ]

let random_gen =
  QCheck.Gen.(map (String.concat "") (list_size (int_bound 40) piece_gen))

(* nesting deep enough to stress a recursive-descent parser, then
   optionally cut short or left unbalanced *)
let nested_gen =
  let open QCheck.Gen in
  let nest opening inner closing d =
    String.concat "" (List.init d (fun _ -> opening))
    ^ inner
    ^ String.concat "" (List.init d (fun _ -> closing))
  in
  let shape =
    oneofl
      [
        nest "f(" "x" ")";
        nest "(" "X" ")";
        nest "o[m -> " "o" "]";
        nest "N = count{V [W]; " "p(V, W)" "}";
        nest "1 + (" "1" ")";
        nest "not " "p" "";
      ]
  in
  map3
    (fun mk depth (frame, cut) ->
      let s = mk depth in
      match frame with
      | 0 -> s
      | 1 -> s ^ "."
      | 2 -> "q(X) :- " ^ s ^ "."
      | 3 -> "?- " ^ s
      | _ -> String.sub s 0 (cut mod (String.length s + 1)))
    shape (int_range 1 5000) (pair (int_bound 4) nat)

(* ------------------------------------------------------------------ *)
(* Property                                                            *)

let total src =
  (match P.parse_program src with Ok _ | Error _ -> ());
  (match P.parse_query src with Ok _ | Error _ -> ());
  match P.parse_term src with Ok _ | Error _ -> true

let show s =
  if String.length s <= 200 then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 200) (String.length s)

let prop name ~count gen =
  QCheck.Test.make ~name ~count (QCheck.make ~print:show gen) total

let suites =
  [
    ( Printf.sprintf "flpfuzz [seed %d]" Test_xmlfuzz.qcheck_seed,
      List.map Test_xmlfuzz.to_alcotest
        [
          prop "parsers total on mutated samples" ~count:1000 mutated_gen;
          prop "parsers total on random token soup" ~count:1000 random_gen;
          prop "parsers total on deep nesting" ~count:200 nested_gen;
        ] );
  ]
