(** Protocol-message taps: per-type counts and transit-latency
    histograms.

    The machines install one of these on their interconnect fabric; the
    bus and network call back with every message's type tag and its
    send-to-delivery latency (for the bus, queueing wait included).

    Each message type lives in an integer slot.  A fabric resolves its
    protocol's type names to slots once, when it is built ({!slot}),
    and records by slot ({!record_at}); {!record} resolves the name on
    every call.  A type is listed once it has a message since the last
    {!clear}.  The [msg.<type>] entries of
    [Wo_machines.Machine.stats] are {!to_stats}. *)

type t

type slot

val create : unit -> t

val slot : t -> string -> slot
(** The slot of a message type, registered on first use; equal strings
    share a slot. *)

val record_at : t -> slot -> latency:int -> unit

val clear : t -> unit
(** Forget every recorded message, in place; slots stay valid. *)

val copy : t -> t
(** Deep copy of the recorded types (histograms included) — no aliasing
    of the live taps. *)

val record : t -> name:string -> latency:int -> unit

val to_list : t -> (string * int * Hist.t) list
(** [(type, count, latency histogram)], sorted by type name. *)

val total : t -> int
(** Messages recorded across all types. *)

val merge : t -> t -> t

val to_stats : t -> (string * int) list
(** [("msg.<type>", count)] entries, sorted. *)

val to_json : t -> Json.t
(** [[{"type", "count", "latency": <hist>}...]]. *)
