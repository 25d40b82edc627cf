type model = {
  true_facts : Database.t;
  undefined : Database.t;
  alternations : int;
  skolems_suppressed : int;
}

(* Γ(I): least model of the program with negative/aggregate literals
   evaluated against the fixed interpretation I. Monotone decreasing in
   I, so Γ∘Γ is monotone increasing and the even iterates converge to
   the set of well-founded-true facts while the odd iterates converge to
   the non-false facts. Returns the model with the number of skolem
   heads its fixpoint suppressed. *)
let gamma ?stats ?compiled ?max_term_depth ?max_rounds rules edb i =
  let db = Database.copy edb in
  let o =
    Seminaive.run ?stats ?compiled ?max_term_depth ?max_rounds ~neg:i rules db
  in
  (db, o.Seminaive.skolems_suppressed)

let compute ?stats ?compiled ?max_term_depth ?max_rounds p edb =
  let rules = Program.rules p in
  let alternations = ref 0 in
  let step i =
    incr alternations;
    gamma ?stats ?compiled ?max_term_depth ?max_rounds rules edb i
  in
  (* A_0 = ∅ (so Γ(A_0) is the maximal candidate). The under-estimates
     carry the suppression count of the Γ that built them, so the final
     [true_facts] reports its own. *)
  let rec iterate under over =
    (* invariant: under ⊆ true facts ⊆ over *)
    let ((under', _) as u') = step over in
    let over', _ = step under' in
    if Database.equal under under' && Database.equal over over' then
      (u', over')
    else iterate under' over'
  in
  let empty = Database.create () in
  let over0, _ = step empty in
  let ((under0, _) as u0) = step over0 in
  let (under, skolems_suppressed), over =
    if Database.equal under0 over0 then (u0, over0) else iterate under0 over0
  in
  {
    true_facts = under;
    undefined = Database.diff over under;
    alternations = !alternations;
    skolems_suppressed;
  }

let is_total m = Database.cardinal m.undefined = 0
