type model = {
  true_facts : Database.t;
  undefined : Database.t;
  alternations : int;
  skolems_suppressed : int;
}

(* Γ(I): least model of the program over [base] with negative/aggregate
   literals evaluated against the fixed interpretation I. Monotone
   decreasing in I, so Γ∘Γ is monotone increasing and the even iterates
   converge to the set of well-founded-true facts while the odd iterates
   converge to the non-false facts. Returns the model with the number
   of skolem heads its fixpoint suppressed. *)
let gamma ?stats ?compiled ?max_term_depth ?max_rounds rules base i =
  let db = Database.copy base in
  let o =
    Seminaive.run ?stats ?compiled ?max_term_depth ?max_rounds ~neg:i rules db
  in
  (db, o.Seminaive.skolems_suppressed)

(* The sequence A_{j+1} = Γ(A_j) from an A_0 below the true facts and
   below A_2 (the base facts, say: every Γ result holds them), so the
   even iterates rise and the odd ones fall. The sequence has settled at
   the first j with A_{j+1} = A_j (a fixpoint of Γ: the model is total)
   or A_{j+1} = A_{j-1} (both subsequences are stationary). Only
   iterates Γ built are compared: A_0 is not one of them when [first]
   comes from a stratum's relaxation. The true facts are the even
   limit, reported with the suppression count of the Γ that built it
   from the odd one.

   Without an aggregate inside a component Γ is antimonotone and the
   sequence settles. An aggregate can make it climb for many steps and
   still settle, or return to an earlier iterate A_s at A_{j+1}. Γ is a
   function of its argument, so from there the sequence repeats with
   period j+1-s forever; a period of 1 or 2 is a settled sequence, and
   one of 3 or more never settles. [saved] keeps A_s for the largest
   power of two s <= j (Brent's cycle detection), so such a cycle is
   found within about two periods of where it starts, whatever the
   size of the iterates, and is reported as [Eval.Diverged]. *)
let alternate ?stats ?compiled ?max_term_depth ?max_rounds rules ~base first =
  let alternations = ref 0 in
  let step i =
    incr alternations;
    gamma ?stats ?compiled ?max_term_depth ?max_rounds rules base i
  in
  let settle (under, skolems_suppressed) ~undefined =
    { true_facts = under; undefined; alternations = !alternations;
      skolems_suppressed }
  in
  (* [cur] is A_j, [prev] is A_{j-1} from j = 2 on, [saved] is A_s;
     only s < j - 1 can show a repeat that the settling checks missed *)
  let rec go prev ((cur, _) as c) j (s, saved) =
    let ((next, _) as n) = step cur in
    if Database.equal next cur then settle n ~undefined:(Database.create ())
    else if Option.fold ~none:false ~some:(Database.equal next) prev then
      let under, over = if j mod 2 = 1 then (n, cur) else (c, next) in
      settle under ~undefined:(Database.diff over (fst under))
    else if s < j - 1 && Database.equal next saved then
      raise
        (Eval.Diverged
           (Printf.sprintf
              "the alternating fixpoint returned to iterate %d at iterate \
               %d and never settles (an aggregate through recursion?)"
              s (j + 1)))
    else
      let j = j + 1 in
      go (Some cur) n j (if j land (j - 1) = 0 then (j, next) else (s, saved))
  in
  go None first 1 (1, fst first)

let compute ?stats ?compiled ?max_term_depth ?max_rounds p edb =
  let rules = Program.rules p in
  let first = gamma ?stats ?compiled ?max_term_depth ?max_rounds rules edb edb in
  let m =
    alternate ?stats ?compiled ?max_term_depth ?max_rounds rules ~base:edb first
  in
  { m with alternations = m.alternations + 1 }

let is_total m = Database.cardinal m.undefined = 0
