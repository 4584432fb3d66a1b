(** Named integer counters for simulation statistics.

    Each counter lives in an integer slot.  A simulator component
    resolves its counter names to slots once, when it is built
    ({!slot}), and then updates by slot ({!incr_at}, {!max_at}): one
    array write per event, with no string hashing.  The by-name
    functions resolve the name on every call, for tests and one-off
    counts.  Slots stay valid across {!clear}.

    A counter is listed ({!to_list}) once it has been updated since the
    last {!clear} — [add name 0] lists it at 0 — and resolving a name
    alone lists nothing.  [Wo_machines.Machine.stats] is the legacy
    view of a machine run: these counters followed by the stall and
    message-tap entries. *)

type t

type slot

val create : unit -> t

val slot : t -> string -> slot
(** The slot of [name], registered on first use; equal strings share a
    slot. *)

val incr_at : t -> slot -> unit

val max_at : t -> slot -> int -> unit
(** Keep the running maximum: set the counter to [n] if [n] exceeds
    it. *)

val clear : t -> unit
(** Zero and unlist every counter, in place — components holding this
    collector see an empty one, as after {!create}, and keep their
    slots. *)

val copy : t -> t
(** A snapshot: later updates or a {!clear} of either side do not reach
    the other. *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val get : t -> string -> int
(** 0 if never touched. *)

val max_to : t -> string -> int -> unit
(** Keep the running maximum; [n <= 0] on an untouched counter lists
    nothing. *)

val to_list : t -> (string * int) list
(** The touched counters, sorted by name. *)

val merge : t -> t -> t
(** Pointwise sum into a fresh collector. *)

val pp : Format.formatter -> t -> unit
