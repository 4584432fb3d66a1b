(** A shared, arbitrated bus.

    One message occupies the bus for [transfer_cycles]; contending messages
    queue in request order.  Every delivery is therefore serialized and
    globally ordered — the property that distinguishes Figure 1's bus
    configurations from the network ones (with a bus, reordering can only
    come from the processor side, e.g. a write buffer). *)

type 'msg t

val create :
  engine:Wo_sim.Engine.t ->
  ?stats:Wo_sim.Stats.t ->
  ?tap:('msg -> src:int -> dst:int -> latency:int -> unit) ->
  ?transfer_cycles:int ->
  unit ->
  'msg t
(** [transfer_cycles] defaults to 2.  Every send counts under
    [bus.messages] in [stats].  [tap] observes every message at
    delivery with its total send-to-delivery latency (queueing wait
    included). *)

val connect : 'msg t -> node:int -> ('msg -> unit) -> unit

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a bus transaction from [src] to [dst]. *)

val messages_sent : 'msg t -> int

val busy : 'msg t -> bool

val reset : 'msg t -> unit
(** Drop queued transactions and zero the sent counter, in place; node
    handlers stay connected.  Only sound between runs. *)
