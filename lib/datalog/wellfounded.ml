type model = {
  true_facts : Database.t;
  undefined : Database.t;
  alternations : int;
}

(* Γ(I): least model of the program with negative/aggregate literals
   evaluated against the fixed interpretation I. Monotone decreasing in
   I, so Γ∘Γ is monotone increasing and the even iterates converge to
   the set of well-founded-true facts while the odd iterates converge to
   the non-false facts. *)
let gamma ?stats ?compiled ?max_term_depth ?max_rounds rules edb i =
  let db = Database.copy edb in
  ignore
    (Seminaive.run ?stats ?compiled ?max_term_depth ?max_rounds ~neg:i
       rules db);
  db

let compute ?stats ?compiled ?max_term_depth ?max_rounds p edb =
  let rules = Program.rules p in
  let alternations = ref 0 in
  let step i =
    incr alternations;
    gamma ?stats ?compiled ?max_term_depth ?max_rounds rules edb i
  in
  (* A_0 = ∅ (so Γ(A_0) is the maximal candidate). *)
  let rec iterate under over =
    (* invariant: under ⊆ true facts ⊆ over *)
    let under' = step over in
    let over' = step under' in
    if Database.equal under under' && Database.equal over over' then
      (under', over')
    else iterate under' over'
  in
  let empty = Database.create () in
  let over0 = step empty in
  let under0 = step over0 in
  let under, over =
    if Database.equal under0 over0 then (under0, over0)
    else iterate under0 over0
  in
  {
    true_facts = under;
    undefined = Database.diff over under;
    alternations = !alternations;
  }

let is_total m = Database.cardinal m.undefined = 0
