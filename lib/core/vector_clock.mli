(** Vector clocks over a fixed set of processors.

    The substrate for on-the-fly happens-before tracking: the
    path-incremental DRF0 checker ({!Drf0_inc}) maintains one clock per
    processor and per-location access metadata in terms of these. *)

type t

val zero : int -> t
(** [zero n] for [n] processors. *)

val size : t -> int

val get : t -> int -> int

val tick : t -> int -> t
(** Increment one processor's component. *)

val set : t -> int -> int -> t
(** [set t p v] is [t] with processor [p]'s component replaced by [v]
    (persistent update — the argument is unchanged, so checkpointed
    references stay valid across it). *)

val join : t -> t -> t
(** Pointwise maximum.  @raise Invalid_argument on size mismatch. *)

val leq : t -> t -> bool
(** Pointwise less-or-equal: [leq a b] iff a happened-before-or-equals b. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)
