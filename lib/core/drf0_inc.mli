(** Path-incremental DRF0/DRF1 checking.

    The closure-based checker ({!Drf0.races}) pays an O(n^3) Warshall
    closure plus an O(n^2) conflict scan per complete execution.  This
    module maintains the same happens-before judgement *incrementally*
    along an enumeration DFS path: vector clocks per processor, last
    write/read per (location, processor), and a synchronization clock per
    location.  [push] appends one event in O(P) and reports a race the
    moment one exists; [pop] undoes the latest push in O(1), so the
    enumerator can branch with O(depth) total bookkeeping and prune a
    subtree at the first racing event — every completion of a racy prefix
    stays racy because happens-before between two events depends only on
    the prefix up to the later one.

    Augmentation ({!Execution.augment}) is not replayed: the virtual
    processor's events are synchronization-chained to every real event,
    so they never race in an idealized execution and the verdict over
    real events equals the closure-based verdict over the augmented
    execution.  {!Drf0.races} remains the oracle; the agreement is
    property-tested in the suite.

    The stateful enumerator keys its visited table on this metadata: the
    AST engine through a materialised {!summary}, the compiled engine
    through the allocation-free in-place reads ({!clock},
    {!loc_view}). *)

type mode =
  | Mode_drf0  (** every same-location sync pair synchronizes *)
  | Mode_drf1  (** Section 6: only write->read sync pairs order others *)

val mode_of_model : Sync_model.t -> mode option
(** The incremental mode implementing a synchronization model, if this
    checker supports it ({!Sync_model.drf0} and {!Sync_model.drf1});
    [None] means callers must fall back to the closure-based oracle. *)

type t

val create : ?mode:mode -> nprocs:int -> unit -> t
(** A checker for executions over processors [0 .. nprocs-1] (default
    mode [Mode_drf0]).  @raise Invalid_argument if [nprocs <= 0]. *)

val push : t -> Event.t -> Drf0.race option
(** Append the next event of the current path.  Returns the race this
    event completes, if any: [e2] is the new event and [e1] is, among the
    {e latest} conflicting unordered access of each other processor, the
    one with the smallest event id.  (Only the latest access per
    (location, processor) is retained; that loses no verdicts because
    program order is happens-before, so when any access of a processor
    races with [e2] its latest conflicting access does too.)  The state
    is updated whether or not a race is found.
    @raise Invalid_argument if the event's processor is out of range. *)

val pop : t -> unit
(** Undo the most recent un-popped {!push} (backtrack one edge).
    @raise Invalid_argument if nothing is pushed. *)

val depth : t -> int
(** Number of pushes not yet popped. *)

val reset : t -> unit
(** Pop everything. *)

(** {2 State summaries}

    The stateful (DAG) enumerator memoizes "every completion of this
    prefix is race-free".  Whether a {e future} event races depends on
    the past only through what this summary captures: per-processor
    clocks, the epoch of the last read/write per (location, processor),
    and the per-location synchronization clock.  All future operations
    compare these values {e component-wise} (joins are pointwise [max],
    race tests compare an epoch against one clock component), so any
    order-preserving per-component renumbering of a summary leaves the
    set of reachable races unchanged — the property the canonical state
    key's rank compression relies on (see [Wo_prog.Cinterp]). *)

type loc_summary = {
  ls_loc : Event.loc;
  ls_last_write : int array;
      (** per processor: epoch of its last write to the location, -1 if none *)
  ls_last_read : int array;
  ls_sync : int array;  (** the location's synchronization clock, by component *)
}

type summary = {
  sm_clocks : int array array;
      (** [sm_clocks.(p).(q)]: processor [p]'s clock, component [q] *)
  sm_locs : loc_summary list;  (** locations touched so far, sorted *)
}

val summary : t -> summary
(** A snapshot of the checker's happens-before state (arrays are fresh).
    The AST oracle's canonical key (the test-only [wo_oracle] library)
    reads it; the compiled key reads the same values in place through
    the accessors below. *)

(** {3 In-place reads}

    The values of {!summary}, read without building it: no allocation
    per coordinate, one table lookup per location. *)

val clock : t -> int -> int -> int
(** [clock t p q] = [(summary t).sm_clocks.(p).(q)]. *)

type loc_view
(** One location's metadata as of the lookup (immutable: later pushes
    and pops leave it as it was). *)

val loc_view : t -> Event.loc -> loc_view
(** Look a location up once.  A location no pushed event touched reads
    as absent from {!summary}'s [sm_locs]: epochs -1, sync clock 0. *)

val last_write : loc_view -> int -> int
(** [last_write v q]: [ls_last_write.(q)], or -1 when absent. *)

val last_read : loc_view -> int -> int
(** [last_read v q]: [ls_last_read.(q)], or -1 when absent. *)

val sync : loc_view -> int -> int
(** [sync v q]: [ls_sync.(q)], or 0 when absent. *)

val check_execution : ?mode:mode -> Execution.t -> Drf0.race option
(** {!push} folded over an execution's events with a fresh checker
    (processor count inferred), stopping at the first race.  Same
    verdict as [Drf0.races ~augment:true] being non-empty, but without
    building the closure; the returned race has the smallest
    second endpoint among all races (the event that creates the first
    race), with [e1] chosen as documented for {!push}.  [wo check] runs
    it on each sampled schedule of a program with spin loops. *)
