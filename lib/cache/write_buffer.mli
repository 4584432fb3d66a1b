(** A per-processor FIFO write buffer.

    The classic uniprocessor optimization whose read-bypass breaks
    sequential consistency on multiprocessors (Figure 1, bus
    configurations): a write is deposited and the processor moves on; a
    subsequent read may be allowed to overtake the buffered writes.

    The buffer itself is a dumb FIFO with occupancy waiters — draining to
    memory, bypass and forwarding policy live in the uncached machine. *)

type entry = { loc : Wo_core.Event.loc; value : Wo_core.Event.value; tag : int }
(** [tag] identifies the buffered write for the machine's bookkeeping. *)

type t

val create : depth:int -> t

val push : t -> entry -> bool
(** [false] if the buffer is full. *)

val pop : t -> entry option

val newest_for : t -> Wo_core.Event.loc -> entry option
(** Youngest buffered write to [loc] (store-to-load forwarding source). *)

val has_loc : t -> Wo_core.Event.loc -> bool

val clear : t -> unit
(** Empty the buffer and drop every waiter, in place (session reset). *)

val is_empty : t -> bool

val size : t -> int

val depth : t -> int

val on_empty : t -> (unit -> unit) -> unit
(** One-shot callback when the buffer next becomes empty (immediately if it
    already is).  The machine triggers checks via {!notify}. *)

val on_not_full : t -> (unit -> unit) -> unit
(** One-shot callback when a slot is next available. *)

val notify : t -> unit
(** Fire eligible waiters; the machine calls this after draining. *)
