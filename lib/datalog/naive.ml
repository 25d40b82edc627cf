module Atom = Logic.Atom

type outcome = { rounds : int; derived : int; skolems_suppressed : int }

let too_deep max_term_depth (a : Atom.t) =
  List.exists (fun t -> Logic.Term.depth t > max_term_depth) a.Atom.args

let run ?stats ?(max_term_depth = 8) ?(max_rounds = 100_000) ~neg rules db =
  let rounds = ref 0 in
  let derived = ref 0 in
  let suppressed = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    if !rounds > max_rounds then
      raise
        (Eval.Diverged
           (Printf.sprintf "no fixpoint after %d naive rounds" max_rounds));
    changed := false;
    List.iter
      (fun r ->
        let heads = Eval.derive ?stats ~db ~neg r in
        List.iter
          (fun a ->
            if too_deep max_term_depth a then incr suppressed
            else if Database.add_fact db a then begin
              incr derived;
              changed := true
            end)
          heads)
      rules
  done;
  { rounds = !rounds; derived = !derived; skolems_suppressed = !suppressed }
