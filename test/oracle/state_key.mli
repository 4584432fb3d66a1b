(** Canonical encodings of AST enumeration states.

    The AST stateful walks ({!Enum_ref.outcomes_stateful},
    {!Enum_ref.check_drf0_stateful}) turn the search tree into a DAG by
    keying a visited table on these encodings — the oracle for the
    compiled keys ({!Wo_prog.Cinterp.exact_key},
    {!Wo_prog.Cinterp.canonical_key}).  Sleep sets are transported
    under the returned arrangement with {!Wo_prog.Cinterp.map_sleep}.
    Keys are full structural encodings — the table compares entire
    keys, never just a hash, so a hash collision can only cost a bucket
    scan, never a wrong merge.

    Two flavours:

    - {!exact} snapshots the state byte-for-byte.  Sound for any
      memoized question, required for outcome collection (outcomes name
      concrete processors, registers and locations).
    - {!canonical} additionally quotients by the isomorphisms the DRF0
      verdict cannot observe: locations are renamed by first occurrence,
      processors with equal thread-local signatures are permuted into a
      canonical arrangement (symmetry reduction — Dekker-style mirrored
      programs collapse), dead locations are dropped, and the
      happens-before summary is rank-compressed per clock coordinate.
      Sound {e only} for isomorphism-invariant questions such as "is
      some completion of this state racy". *)

val exact : Interp.view -> string
(** Injective structural snapshot of the view. *)

val canonical :
  ?symmetry:bool ->
  Interp.view ->
  Wo_core.Drf0_inc.summary ->
  string * int array
(** [(key, order)]: the canonical key, and the processor arrangement it
    was built with — [order.(i)] is the concrete processor placed at
    canonical position [i] (the identity arrangement when [symmetry] is
    [false] or the symmetric-thread orbit is too large).  Two states
    receive equal keys only if a processor/location renaming maps one to
    the other, including their happens-before summaries up to
    order-preserving per-coordinate renumbering — which leaves the DRF0
    verdict of every completion unchanged. *)
