(** Coherence protocol messages (Section 5.2).

    A straightforward directory-based write-back protocol: read misses send
    [GetS], write (and synchronization) misses send [GetX]; the directory
    invalidates shared copies and, following the paper, forwards the
    requested line to the writer {e in parallel} with the invalidations
    ([DataX] carries the number of acknowledgements still outstanding).
    Caches acknowledge invalidations to the directory; when all
    acknowledgements for a write have arrived the directory sends
    [WriteDone] to the writing cache — the paper's "ack from memory"
    that lets the write count as globally performed.  Lines owned
    exclusively are recalled ([Recall]/[RecallAck]) through the directory;
    a recall is the message a reserved line stalls (Section 5.3).
    [PutX]/[PutAck] implement write-back on eviction. *)

type recall_mode =
  | For_share  (** requester wants a shared copy; owner downgrades *)
  | For_own    (** requester wants exclusive ownership; owner invalidates *)

type t =
  | GetS of { loc : Wo_core.Event.loc; requester : int; sync : bool }
  | GetX of { loc : Wo_core.Event.loc; requester : int; sync : bool }
  | DataS of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      bound_at : int;
          (* when the value was bound (dispatched) at the directory -- the
             read's commit time per Section 5's definition *)
    }
  | DataX of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      acks_pending : int;
    }
  | Inv of { loc : Wo_core.Event.loc }
  | InvAck of { loc : Wo_core.Event.loc; from : int }
  | Recall of {
      loc : Wo_core.Event.loc;
      mode : recall_mode;
      sync : bool;
      requester : int;
    }
      (** [sync]: the request that triggered the recall is a synchronization
          operation — only those stall on a reserve bit (Section 5.3).
          [requester] identifies the processor whose request is waiting, so
          the cache holding the reserve can attribute the stalled cycles. *)
  | RecallAck of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      from : int;
    }
  | WriteDone of { loc : Wo_core.Event.loc }
  | PutX of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      from : int;
    }
  | PutAck of { loc : Wo_core.Event.loc }

val loc : t -> Wo_core.Event.loc

val tags : string array
(** The constructor names, e.g. ["GetS"] — the keys message taps count
    under. *)

val tag_index : t -> int
(** The position of a message's constructor name in {!tags}. *)

val pp : Format.formatter -> t -> unit
