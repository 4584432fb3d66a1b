(** Discrete-event simulation engine.

    Components schedule closures at future times; the engine runs them in
    time order, FIFO among events scheduled for the same tick, which keeps
    simulations deterministic. *)

module type S = sig
  type t

  type stop_reason = [ `Idle | `Time_limit | `Event_limit ]

  val create : unit -> t

  val now : t -> int
  (** Current simulation time (cycles). *)

  val schedule : t -> delay:int -> (unit -> unit) -> unit
  (** Run the closure [delay] cycles from now ([delay >= 0]). *)

  val schedule_at : t -> time:int -> (unit -> unit) -> unit
  (** @raise Invalid_argument if [time] is in the past. *)

  val pending : t -> int
  (** Number of events not yet executed. *)

  val run : ?max_time:int -> ?max_events:int -> t -> stop_reason
  (** Execute events until the queue drains or a limit is hit.
      [max_events] (default 50 million) is a deadlock/livelock backstop. *)
end

(** The default implementation: an array-backed binary min-heap keyed by
    [(time, sequence-number)].  [schedule]/[schedule_at] are O(log n) with
    no per-event allocation beyond the heap slot; the previous
    map-of-lists implementation paid O(log n) in balanced-tree rebuilds
    plus a list allocation per event and a [List.rev] per tick.

    Event order is identical to the map-of-lists engine it replaced
    (kept as the test-only oracle [Wo_oracle.Engine_ref]): the sequence
    number rises monotonically, so same-tick events run FIFO, and an
    event scheduled for the current tick from inside a handler runs after
    every event of the tick's current batch — exactly the batch semantics
    of the map implementation.  The only divergence is when [max_events]
    fires: the heap stops exactly at the limit, while the map engine
    finishes the current tick's batch first. *)
include S

val clear : t -> unit
(** Reset the engine to its just-created state — time 0, sequence 0, no
    pending events — while keeping the grown heap arrays, so a session
    that reuses one engine across many runs pays no per-run allocation.
    Closures parked by an aborted (time/event-limited) run are dropped;
    event ordering after [clear] is identical to a fresh [create]. *)

val try_step_inline : t -> delay:int -> bool
(** Inline-step fast path for self-rescheduling handlers.  When the
    handler currently executing would [schedule] its own continuation at
    [now + delay] and no pending event is due at or before that tick,
    the heap round-trip is pure overhead: nothing can run in between, so
    the continuation may execute immediately inside the current handler.
    [try_step_inline] checks that condition; on success it advances [now]
    by [delay] and burns the sequence number the skipped [schedule] would
    have claimed, so every later event receives exactly the (time, seq)
    key it would have under the evented execution — same-tick FIFO order,
    and therefore simulation results, are bit-for-bit unchanged.  On
    failure (some event is due first) it does nothing and the caller must
    [schedule] as usual.

    Callers must only invoke this from within a running event (never
    around [run] — externally scheduled events may not be queued yet) and
    should bound consecutive inline steps so [run]'s [max_events]
    livelock backstop still observes runaway handlers. *)
