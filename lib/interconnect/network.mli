(** A general interconnection network (point-to-point message delivery).

    Messages between a pair of nodes are delivered after a delay given by
    the latency model.  With a jittered model, two messages from the same
    source can arrive out of order — the property that breaks sequential
    consistency in Figure 1's network configurations.  Delivery at equal
    times is FIFO in send order (the engine's determinism guarantee). *)

type 'msg t

val create :
  engine:Wo_sim.Engine.t ->
  ?stats:Wo_sim.Stats.t ->
  ?tap:('msg -> src:int -> dst:int -> latency:int -> unit) ->
  latency:Latency.t ->
  unit ->
  'msg t
(** Every send counts under [network.messages] in [stats].  [tap]
    observes every message at send time with the transit latency the
    network chose for it. *)

val connect : 'msg t -> node:int -> ('msg -> unit) -> unit
(** Register the handler for messages addressed to [node].  Connecting a
    node twice replaces its handler. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** @raise Invalid_argument if [dst] has no handler when the message is
    delivered. *)

val messages_sent : 'msg t -> int

val reset : 'msg t -> unit
(** Zero the sent counter; node handlers stay connected.  In-flight
    deliveries live in the engine's queue, so this is only sound between
    runs (after the engine has drained or been cleared). *)
