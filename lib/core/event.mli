(** Memory operations (Section 1 and Section 4 of the paper).

    An event is one dynamic memory operation of an execution: a data read or
    write, or a synchronization operation.  Following Section 5's
    conventions, a synchronization operation may be read-only (e.g. [Test]),
    write-only (e.g. [Unset]) or read-write (e.g. [TestAndSet]); DRF0
    requires each to access exactly one memory location, which this
    representation enforces by construction. *)

type proc = int
(** Processor (equivalently, process) identifier, starting at 0. *)

type loc = int
(** Memory location.  One location is one shared variable; the simulators
    map each location to its own cache line (see DESIGN.md). *)

type value = int

type kind =
  | Data_read
  | Data_write
  | Sync_read       (** read-only synchronization, e.g. [Test] *)
  | Sync_write      (** write-only synchronization, e.g. [Unset] *)
  | Sync_rmw        (** read-write synchronization, e.g. [TestAndSet] *)

type t = {
  id : int;        (** unique within an execution *)
  proc : proc;
  seq : int;       (** position in the issuing processor's program order *)
  kind : kind;
  loc : loc;
  read_value : value option;    (** value returned (reads and rmw) *)
  written_value : value option; (** value stored (writes and rmw) *)
}

val make :
  id:int -> proc:proc -> seq:int -> kind:kind -> loc:loc ->
  ?read_value:value -> ?written_value:value -> unit -> t

val is_read : t -> bool
(** Has a read component (Section 5's convention: data reads, read-only
    synchronization, and the read component of read-write synchronization). *)

val is_write : t -> bool
(** Has a write component. *)

val is_sync_kind : kind -> bool
(** The kind is one of the three synchronization kinds. *)

val is_sync : t -> bool

val is_data : t -> bool

type rmw =
  | Rmw_tas  (** test-and-set: the stored value is 1 *)
  | Rmw_faa of value  (** fetch-and-add: the stored value is [old + n] *)
  | Rmw_fn of (value -> value)
      (** escape hatch for arbitrary modify functions *)
(** First-class description of a read-modify-write's modify step.  The
    known forms ([Rmw_tas], [Rmw_faa]) are immediate data — comparable,
    allocation-free on the hot path — while [Rmw_fn] keeps the old
    closure generality for frontends that need it. *)

val apply_rmw : rmw -> value -> value
(** The stored value given the old value at the location. *)

val conflicts : t -> t -> bool
(** Two accesses conflict iff they access the same location and are not both
    reads (Definition 3). *)

val pp_kind : Format.formatter -> kind -> unit

val pp : Format.formatter -> t -> unit
(** Figure-2 style rendering, e.g. [W(3,x=1)@P0]. *)

val pp_loc : Format.formatter -> loc -> unit
(** Locations print as [x], [y], [z], [a], [b] ... for the first few, then
    [v<n>]. *)

val compare : t -> t -> int
(** Total order by event id. *)

val equal : t -> t -> bool
