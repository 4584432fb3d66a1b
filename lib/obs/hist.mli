(** Power-of-two latency histograms.

    Fixed 64 buckets — bucket [i] counts values [v] with
    [bits v = i] (bucket 0 holds zero, bucket 1 holds 1, bucket 2 holds
    2–3, bucket 3 holds 4–7, …) — so recording is O(1), allocation-free,
    and merging is pointwise. *)

type t

val create : unit -> t

val copy : t -> t
(** Deep copy — the snapshot no longer aliases the live histogram. *)

val clear : t -> unit
(** Empty the histogram in place. *)

val add : t -> int -> unit
(** Negative values clamp to zero. *)

val count : t -> int

val sum : t -> int

val max_value : t -> int
(** Largest value recorded (0 when empty). *)

val merge : t -> t -> t
(** Pointwise sum into a fresh histogram. *)

val to_json : t -> Json.t
(** [{"count", "sum", "mean", "max", "buckets": [{"lo","hi","n"}...]}]. *)
