(** Operational consistency-model backends.

    One port builder behind {!Memsys.port} realizes the relaxed hardware
    ordering models of {!Wo_core.Sync_model} with concrete timing, as
    processor-side write channels over the memory modules of
    {!Flat_memory} (shared with {!Uncached}):

    - {b TSO}: one FIFO store buffer per processor.  Reads overtake
      pending writes and forward from the youngest same-location entry;
      writes drain to memory strictly in program order.
    - {b PSO}: one drain channel per (processor, location), so writes to
      different locations perform out of program order while
      per-location order is preserved.
    - {b RA}: PSO's channels under a bounded total window, with
      release/acquire synchronization — read-only synchronization (an
      acquire) issues without draining; write synchronization (a
      release) drains everything first.

    With [sync_barriers] set (the spec's policy is not [Sync_none]),
    synchronization operations are barriers per the model above; under
    TSO and PSO every synchronization operation drains, which makes the
    machines weakly ordered with respect to DRF0 (Definition 2), and
    under RA only the write side drains, which still suffices for DRF0
    programs because any guaranteed cross-processor happens-before chain
    leaves a processor through a synchronization write.

    Each model's reachable outcomes for a program are a subset of the
    axiomatic set {!Wo_prog.Relaxed.outcomes} computes for the matching
    {!Wo_core.Sync_model.hardware}; [wo difftest] checks that inclusion. *)

type kind =
  | Tso of { depth : int; drain_delay : int }
  | Pso of { depth : int; drain_delay : int }
  | Ra of { window : int; drain_delay : int }
      (** [depth] bounds the store buffer (total entries for TSO,
          per-location for PSO); [window] bounds RA's total pending
          writes; [drain_delay] is the cycles an entry rests before its
          memory message is sent — the window in which reads overtake
          it. *)

type config = {
  fabric : Memsys.fabric_kind;
  kind : kind;
  sync_barriers : bool;
      (** when false, synchronization operations are treated as data
          (the [Sync_none] policy): nothing drains, nothing is a
          barrier, and the machine is not weakly ordered *)
  modules : int;  (** memory modules, interleaved by location *)
  local_cost : int;
}

val build : config -> Driver.env -> Memsys.port
(** The port builder, for composition with a custom driver. *)

val make :
  name:string ->
  description:string ->
  sequentially_consistent:bool ->
  weakly_ordered_drf0:bool ->
  config ->
  Machine.t
(** Package the backend as a machine.
    @raise Invalid_argument on a non-positive depth, window or module
    count. *)
