(* Latency samples and the estimators the benchmark reports. *)

type series = { mutable xs : float list; mutable ts : int64 list; mutable n : int }
(** samples, newest first, with the time each was taken *)

let series () = { xs = []; ts = []; n = 0 }

let add s x =
  s.xs <- x :: s.xs;
  s.ts <- Trace.now () :: s.ts;
  s.n <- s.n + 1

(* Quantile by linear interpolation between closest ranks (the
   "type 7" estimator); 0 for no samples. *)
let quantile_of xs q =
  match Array.of_list xs with
  | [||] -> 0.0
  | a ->
    Array.sort compare a;
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = truncate h in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile s q = quantile_of s.xs q
let median s = quantile s 0.5
let median_of xs = quantile_of xs 0.5
let mean s = if s.n = 0 then 0.0 else List.fold_left ( +. ) 0.0 s.xs /. float_of_int s.n

(* The median, over the first [windows] windows of [window_ms] from
   [t0], of each window's median sample. A disturbance on the host that
   slows one or two windows of a run moves this less than it moves the
   median of the whole run. Samples from before [t0] (it may move past
   a pause) count in the first window. *)
let windowed_median s ~t0 ~window_ms ~windows =
  let buckets = Array.make windows [] in
  List.iter2
    (fun x t ->
      let w = max 0 (truncate (Trace.ms_between t0 t /. window_ms)) in
      if w < windows then buckets.(w) <- x :: buckets.(w))
    s.xs s.ts;
  median_of (List.filter_map (function [] -> None | xs -> Some (median_of xs)) (Array.to_list buckets))
