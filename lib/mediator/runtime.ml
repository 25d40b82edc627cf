module Fault = Wrapper.Fault

type retry_policy = { attempts : int; backoff : int; budget : int }
type breaker_policy = { trip_after : int; cooldown : int }
type policy = { retry : retry_policy; breaker : breaker_policy }

let default_policy =
  {
    retry = { attempts = 3; backoff = 50; budget = 10_000 };
    breaker = { trip_after = 3; cooldown = 1_000 };
  }

type state = Closed | Open | Half_open

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type health = {
  mutable state : state;
  mutable open_until : int;
  mutable consecutive : int;
  mutable calls : int;
  mutable failures : int;
  mutable retries : int;
  mutable trips : int;
  mutable absorbed : int;
  mutable quarantined : bool;
  mutable transitions : (int * state) list;
}

type t = {
  mutable policy : policy;
  mutable clock : int;
  table : (string, health) Hashtbl.t;
  order : string list ref;  (* first-use order, for stable reporting *)
}

let create ?(policy = default_policy) () =
  { policy; clock = 0; table = Hashtbl.create 8; order = ref [] }

let policy t = t.policy
let set_policy t p = t.policy <- p
let clock t = t.clock
let advance t ms = t.clock <- t.clock + max 0 ms

let health t name =
  match Hashtbl.find_opt t.table name with
  | Some h -> h
  | None ->
    let h =
      {
        state = Closed;
        open_until = 0;
        consecutive = 0;
        calls = 0;
        failures = 0;
        retries = 0;
        trips = 0;
        absorbed = 0;
        quarantined = false;
        transitions = [];
      }
    in
    Hashtbl.replace t.table name h;
    t.order := !(t.order) @ [ name ];
    h

let sources t = !(t.order)
let transitions h = List.rev h.transitions

let transition_at stamp h s =
  if h.state <> s then begin
    h.state <- s;
    h.transitions <- (stamp, s) :: h.transitions
  end

let transition t h s = transition_at t.clock h s

let trip_at stamp h ~until =
  h.trips <- h.trips + 1;
  h.open_until <- until;
  transition_at stamp h Open

(* Elapsed virtual time (channel costs plus backoff delays) accumulates
   in [now] and reaches the runtime clock when the fetch returns, so a
   non-fault exception escaping [f] leaves the clock where it was. *)
let fetch t ch f =
  let h = health t (Fault.name ch) in
  h.calls <- h.calls + 1;
  let now = ref t.clock in
  let result =
    if h.quarantined then Error "quarantined after crash; awaiting re-registration"
    else begin
      (* an elapsed cooldown lets one probe through *)
      (match h.state with
      | Open when !now >= h.open_until -> transition_at !now h Half_open
      | _ -> ());
      match h.state with
      | Open ->
        Error
          (Printf.sprintf "circuit open (cooldown ends at t=%dms)" h.open_until)
      | Closed | Half_open ->
        let probing = h.state = Half_open in
        let attempts = if probing then 1 else t.policy.retry.attempts in
        let give_up reason =
          h.consecutive <- h.consecutive + 1;
          if probing then trip_at !now h ~until:(!now + t.policy.breaker.cooldown)
          else if h.consecutive >= t.policy.breaker.trip_after then
            trip_at !now h ~until:(!now + t.policy.breaker.cooldown);
          Error reason
        in
        let rec attempt n backed_off =
          let before = Fault.clock ch in
          let outcome =
            match Fault.call ch f with
            | v -> (
              match Fault.consume_corruption ch with
              | None -> Ok v
              | Some fl ->
                Error (`Fail (Printf.sprintf "corrupt payload (%s)" (Fault.fault_to_string fl))))
            | exception Fault.Injected { fault = Fault.Crash; _ } -> Error `Crash
            | exception Fault.Injected { fault; _ } ->
              Error (`Fail (Fault.fault_to_string fault))
          in
          now := !now + (Fault.clock ch - before);
          match outcome with
          | Ok v ->
            if n > 1 then h.absorbed <- h.absorbed + 1;
            h.consecutive <- 0;
            if probing then transition_at !now h Closed;
            Ok v
          | Error `Crash ->
            h.failures <- h.failures + 1;
            h.quarantined <- true;
            trip_at !now h ~until:max_int;
            Error "crashed; quarantined until re-registration"
          | Error (`Fail reason) ->
            h.failures <- h.failures + 1;
            let delay = t.policy.retry.backoff * (1 lsl (n - 1)) in
            if n < attempts && backed_off + delay <= t.policy.retry.budget then begin
              h.retries <- h.retries + 1;
              now := !now + delay;
              attempt (n + 1) (backed_off + delay)
            end
            else give_up reason
        in
        attempt 1 0
    end
  in
  t.clock <- !now;
  result

let revive t name =
  let h = health t name in
  h.quarantined <- false;
  h.consecutive <- 0;
  h.open_until <- 0;
  transition t h Closed

type totals = {
  total_calls : int;
  total_failures : int;
  total_retries : int;
  total_trips : int;
  total_absorbed : int;
  quarantined_sources : string list;
}

let totals t =
  List.fold_left
    (fun acc name ->
      let h = health t name in
      {
        total_calls = acc.total_calls + h.calls;
        total_failures = acc.total_failures + h.failures;
        total_retries = acc.total_retries + h.retries;
        total_trips = acc.total_trips + h.trips;
        total_absorbed = acc.total_absorbed + h.absorbed;
        quarantined_sources =
          (if h.quarantined then acc.quarantined_sources @ [ name ]
           else acc.quarantined_sources);
      })
    {
      total_calls = 0;
      total_failures = 0;
      total_retries = 0;
      total_trips = 0;
      total_absorbed = 0;
      quarantined_sources = [];
    }
    (sources t)

let pp_health ppf (name, h) =
  Format.fprintf ppf
    "%s: %s%s, %d fetch(es), %d failure(s), %d retr%s, %d trip(s), %d absorbed"
    name
    (state_to_string h.state)
    (if h.quarantined then " (quarantined)" else "")
    h.calls h.failures h.retries
    (if h.retries = 1 then "y" else "ies")
    h.trips h.absorbed
