(** Per-processor, per-reason stall-cycle attribution.

    The paper's central performance claim (Figure 3, §5.3) is about who
    stalls, for what reason, and for how many cycles.  Every machine
    model and the cache controller report waits into one of these typed
    accounts instead of ad-hoc string counters; the legacy
    [P<i>.stall.<reason>] statistics keys are derived views
    ({!to_stats}, part of [Wo_machines.Machine.stats]), and [Wo_machines.Machine.stall]/[total_stalls] read
    through the same table.

    When a recorder sink is supplied, every attribution also emits a
    [Proc]-category span covering the stalled interval, so exported
    timelines show the waits the table aggregates. *)

type reason =
  | Read_miss  (** a data read waiting for its value *)
  | Rmw_wait  (** a non-synchronizing read-modify-write reply *)
  | Rmw_order  (** an RMW held for same-location write ordering *)
  | Sync_commit  (** a synchronization operation waiting to commit *)
  | Release_gate
      (** release-side gating: waiting for the processor's own previous
          accesses to perform globally around a synchronization
          operation — Definition 1's conditions 2 and 3.  The §5.3
          implementation's whole point is that this account stays at
          zero. *)
  | Reserve_wait
      (** a synchronization request held by a remote reserve bit (§5.3);
          attributed to the {e requesting} processor by the cache
          controller that holds the reserve *)
  | Counter_drain
      (** waiting for the outstanding-access counter / write pipeline to
          drain outside a release (fences, SC-style gating of data
          accesses) *)
  | Buffer_full  (** write buffer full *)
  | Buffer_drain  (** a read waiting for the write buffer to drain *)
  | Write_ack  (** a write waiting for its acknowledgement *)
  | Migration  (** the §5.1 re-scheduling rule before a context switch *)

val all_reasons : reason list

val reason_name : reason -> string
(** Stable short key, e.g. ["release_gate"]; used in statistics keys,
    metrics JSON and the CLI. *)

val reason_of_name : string -> reason option

type t

val create : unit -> t

val clear : t -> unit
(** Forget everything, in place, returning the collector to its
    freshly-created shape (rows regrow lazily on the next run). *)

val copy : t -> t
(** Deep copy — identical contents and array shapes, no aliasing. *)

val add : t -> ?sink:Recorder.t -> ?now:int -> proc:int -> reason -> int -> unit
(** Attribute [cycles] to [(proc, reason)]; non-positive counts are
    ignored.  With [~sink] and [~now] (the cycle the wait ended), also
    emits a span [\[now - cycles, now\]] named [stall.<reason>] on track
    [proc]. *)

val get : t -> proc:int -> reason -> int

val proc_total : t -> proc:int -> int

val total : t -> int

val procs : t -> int list
(** Processors with at least one attributed cycle, ascending. *)

val per_proc : t -> proc:int -> (reason * int) list
(** Non-zero accounts, in {!all_reasons} order. *)

val merge : t -> t -> t

val to_stats : t -> (string * int) list
(** The legacy view: [("P<i>.stall.<reason>", cycles)] entries sorted by
    key, plus a [("stall.total", total)] entry. *)

val to_json : t -> Json.t
(** [{"total": n, "per_proc": [{"proc", "reasons": {..}, "total"}...]}]. *)
