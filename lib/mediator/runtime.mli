(** Fault-tolerant fetch runtime: per-source retry-with-backoff and a
    circuit breaker, all in virtual time.

    Every mediator → source fetch goes through {!fetch}, which wraps
    the operation in the source's {!Wrapper.Fault} channel and absorbs
    what it can: transient faults are retried with exponential backoff
    under a virtual-time budget; repeated failures trip a per-source
    breaker (closed → open → half-open → closed); a {!Wrapper.Fault.Crash}
    quarantines the source until it re-registers through the Figure-3
    dynamic-registration path ({!revive}). The clock is virtual — it
    advances by channel call costs and backoff delays only — so every
    run of the same fault plan produces the identical transition
    transcript. *)

type retry_policy = {
  attempts : int;  (** total tries per fetch, first one included *)
  backoff : int;  (** first retry delay, virtual ms; doubles per retry *)
  budget : int;  (** cap on cumulative backoff per fetch, virtual ms *)
}

type breaker_policy = {
  trip_after : int;  (** consecutive failed fetches that open the breaker *)
  cooldown : int;  (** virtual ms the breaker stays open before probing *)
}

type policy = { retry : retry_policy; breaker : breaker_policy }

val default_policy : policy
(** 3 attempts, 50 ms initial backoff, 10 s budget; trip after 3,
    1 s cooldown. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

type health = {
  mutable state : state;
  mutable open_until : int;  (** clock value that ends an open period *)
  mutable consecutive : int;  (** consecutive failed fetches *)
  mutable calls : int;  (** fetches attempted (not retries) *)
  mutable failures : int;  (** failed call attempts, retried ones included *)
  mutable retries : int;
  mutable trips : int;  (** breaker openings, quarantines included *)
  mutable absorbed : int;  (** fetches that succeeded only thanks to retries *)
  mutable quarantined : bool;
  mutable transitions : (int * state) list;  (** newest first *)
}

type t

val create : ?policy:policy -> unit -> t
val policy : t -> policy
val set_policy : t -> policy -> unit

val clock : t -> int
val advance : t -> int -> unit
(** Let virtual time pass (e.g. to ride out a cooldown). *)

val health : t -> string -> health
(** The health record for a source, created on first use. *)

val sources : t -> string list

val transitions : health -> (int * state) list
(** Breaker transitions in chronological order, clock-stamped. *)

val fetch : t -> Wrapper.Fault.t -> (Wrapper.Source.t -> 'a) -> ('a, string) result
(** Run one operation against a source through its fault channel under
    the retry and breaker policies. [Error reason] means the source is
    skipped for this fetch: breaker open, quarantined, or retries
    exhausted. Non-fault exceptions (e.g. {!Wrapper.Source.Unsupported})
    propagate unchanged. Advances the runtime clock by the fetch's
    virtual elapsed time (channel costs plus backoff delays). *)

val revive : t -> string -> unit
(** Figure-3 re-registration: lift a quarantine, close the breaker,
    clear the consecutive-failure count. Lifetime counters survive. *)

type totals = {
  total_calls : int;
  total_failures : int;
  total_retries : int;
  total_trips : int;
  total_absorbed : int;
  quarantined_sources : string list;
}

val totals : t -> totals

val pp_health : Format.formatter -> string * health -> unit
