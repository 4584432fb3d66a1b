(** Off-heap visited table for the stateful (DAG) enumerator.

    Keys are complete state encodings ({!Cinterp}).  Slots live in
    an int [Bigarray] (fingerprint + claimed sleep bitset + arena
    reference) and full keys in bump-allocated [Bytes] chunks, so the
    table's footprint is invisible to the GC — a search can hold
    10{^8}–10{^9} states without major-collection collapse.  Lookups
    verify the {e full} key against the arena, so a fingerprint
    collision can only cost a comparison, never a wrong merge.

    Striped open addressing with one mutex per stripe; safe from any
    number of domains.  The stripe, slot, and fingerprint all derive
    from one 64-bit FNV-1a hash computed once per claim.

    Each entry records the sleep-set bitset the state was claimed with:
    the subtree below the state, restricted by that sleep set, is
    covered (or being covered) by whoever claimed it. *)

type t

val create : ?shards:int -> unit -> t
(** A fresh table with [shards] (rounded up to a power of two,
    default 64) independently locked stripes. *)

val try_claim : t -> string -> int -> [ `Skip | `Explore of int ]
(** [try_claim t key sleep] atomically consults and updates the entry
    for [key]:

    - [`Skip]: an existing claim's sleep set is a subset of [sleep], so
      everything reachable under [sleep] is already covered — prune.
    - [`Explore s]: the caller must explore the state with sleep set [s]
      ([sleep] itself for a first visit, or the intersection with the
      previous claim, which widens coverage monotonically).

    @raise Invalid_argument on keys of 1 MiB or more (no legitimate
    state key approaches the packed length bound). *)

val hits : t -> int
(** Number of [`Skip] verdicts so far (the dedup metric). *)

val size : t -> int
(** Number of distinct states claimed. *)

val arena_bytes : t -> int
(** Bytes allocated for key storage across all stripes (the table's
    dominant footprint; slot regions add [24 * capacity] more). *)

val probe_hist : t -> int array
(** First-visit claims bucketed by [floor(log2 (probe length + 1))] —
    bucket 0 is a direct hit on the home slot; a heavy tail signals
    clustering.  Buckets above the last are clamped into it. *)

val hash64 : string -> int
(** The table's 63-bit FNV-1a key hash (exposed for tests). *)

val borrow : unit -> t
(** The calling domain's spare single-stripe table, empty, when it is in;
    a fresh single-stripe table when it is out (lent to a search still
    running on this domain, or dropped).  Reusing the spare keeps back
    to back searches from allocating a slot region and arena each. *)

val give_back : t -> unit
(** Return a table from {!borrow}: it is cleared and becomes the
    domain's spare, unless a spare is already in, it has more than one
    stripe, or its slot region and arena together exceed 1 MiB — then it
    is left to the GC.  A cleared table answers every claim as a fresh
    one would ({!size}, {!hits} and {!arena_bytes} start from 0); it
    keeps its slot capacity, so only {!probe_hist} can differ.  The
    caller must not touch [t] afterwards. *)
