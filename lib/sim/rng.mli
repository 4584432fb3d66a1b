(** Deterministic pseudo-random numbers (splitmix64).

    All randomness in the simulators flows through this module so every
    experiment is reproducible from its integer seed.  Instances are
    mutable; {!split} derives an independent stream, which the machines use
    to give each component (network, scheduler) its own stream so adding a
    random draw in one component does not perturb the others. *)

type t

val make : int -> t

val reseed : t -> int -> unit
(** [reseed t seed] puts [t] in exactly the state [make seed] would
    create, in place — generators split from [t] afterwards see the same
    streams as if everything had been built fresh from [seed]. *)

val draws : t -> int
(** The number of values drawn so far from [t]'s family: [t], every
    generator split from it and, transitively, from those.  The family
    shares one count, so "nothing drew between two points" is one
    comparison of two reads, whichever component holds the stream.
    Every draw counts, {!split} and {!split_into} included; {!reseed}
    leaves the count alone (it only ever grows). *)

val split : t -> t
(** A new generator with an independent stream, deterministic in the state
    of [t] (advances [t]).  It shares [t]'s {!draws} count. *)

val split_into : t -> t -> unit
(** [split_into parent child] re-derives [child]'s stream from [parent]
    in place — the same draw as {!split} (advances [parent]), but
    targeting an existing generator whose identity other components
    already hold.  [child] keeps the {!draws} count it was created with,
    which is [parent]'s when [child] came from [split parent]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a list -> 'a list
