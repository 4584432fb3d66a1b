(** Litmus synthesis from critical cycles.

    The standard way to synthesize a litmus test that separates memory
    models (diy's approach, grounded in Shasha-Snir critical cycles and
    the conflict-edge analysis of Zhang et al.) is to pick a cycle over
    program-order and conflict edges, realize each edge as concrete
    instructions, and state the outcome that {e witnesses} the cycle —
    an outcome no sequentially consistent execution can produce.

    The shapes here are the classic two-events-per-processor cycles:
    [k] processors, [k] locations, processor [i] first accesses location
    [i] then location [i+1 mod k].  The program-order edge is the pair
    inside a processor; the conflict (external) edge links processor
    [i]'s second access and processor [i+1]'s first access, both on
    location [i+1 mod k].  Each conflict edge is oriented by how the
    forbidden outcome observes it:

    - {!Rf}: a write whose value the next processor's read returns,
    - {!Fr}: a read returning the {e initial} value although the next
      processor overwrites it,
    - {!Ws}: two writes whose final memory value exposes the coherence
      order.

    With [k = 2] these shapes are exactly SB ([Fr;Fr]), MP ([Rf;Fr]),
    LB ([Rf;Rf] read-first) and 2+2W ([Ws;Ws]); larger [k] yields WRC,
    IRIW-like chains, and so on.  Because the per-processor accesses
    are distinct locations in program order and every conflict edge is
    oriented by the outcome, the union of the edges is a cycle — so the
    forbidden outcome lies outside the SC outcome set for {e every}
    shape this module can emit (the test suite enumerates samples and
    checks exactly that).

    Each endpoint of a conflict edge may independently be a
    synchronization operation.  Locations are touched by exactly the
    two endpoints of their conflict edge, so the program's conflicting
    pairs are precisely the conflict edges: if both endpoints of every
    edge are synchronization operations, the program is DRF0 {e by
    construction}; if no endpoint anywhere is, it is racy by
    construction. *)

type conflict =
  | Rf  (** write → read-from: the read returns the write's value *)
  | Fr  (** from-read: the read returns the initial value, the
            successor's write overwrites it *)
  | Ws  (** write serialization: final memory exposes the order *)

type edge = {
  conflict : conflict;
  sync_from : bool;  (** the source endpoint is a synchronization op *)
  sync_to : bool;  (** the destination endpoint is a synchronization op *)
}

type shape = {
  edges : edge list;  (** one conflict edge per processor; length >= 2 *)
  padding : int list;
      (** local-work [Nop]s inserted before the first access of each
          processor (same length as [edges]); pure timing variation *)
}

val program : name:string -> shape -> Wo_prog.Program.t
(** Emit the shape as a program.  Processor [i] runs [padding.(i)]
    [Nop]s, its first access (register [r0] if a read), then its second
    access (register [r1] if a read).  Writes store distinct non-zero
    constants per location (1 for the edge source, 2 for the edge
    destination), so reads-from and coherence order are unambiguous.
    Observable registers are exactly the read registers. *)

val forbidden : shape -> Wo_prog.Outcome.t -> bool
(** The outcome predicate that witnesses the cycle: every conflict
    edge observed in its stated orientation.  No SC outcome of
    [program shape] satisfies it. *)

val forbidden_desc : shape -> string
(** Human-readable rendering of the witness, e.g.
    ["P1:r0=1 /\ P0:r1=0"]. *)

val all_sync : shape -> bool
(** Both endpoints of every conflict edge are synchronization
    operations — DRF0 by construction. *)

val no_sync : shape -> bool
(** No endpoint anywhere is a synchronization operation — racy by
    construction. *)

val slug : shape -> string
(** Compact shape name, e.g. ["RfFr"] for MP. *)

val generate : rng:Wo_sim.Rng.t -> ?min_procs:int -> ?max_procs:int ->
  sync:[ `All | `None | `Mixed ] -> unit -> shape
(** Draw a shape: processor count uniform in [[min_procs, max_procs]]
    (defaults 2 and 4), conflict kinds uniform, padding 0-2 [Nop]s, and
    endpoint synchronization flags per [sync]. *)
