(** Latency models for point-to-point networks.

    A latency model maps (source, destination) to the delivery delay of one
    message.  Jittered models consult a {!Wo_sim.Rng} per message, which is
    what makes a "general interconnection network" reorder messages
    (Figure 1, configurations 2 and 4); fixed models keep per-pair FIFO
    order when combined with {!Network}'s FIFO tie-breaking. *)

type t = src:int -> dst:int -> int

type spec =
  | Fixed of int
  | Jittered of { base : int; jitter : int }
  | Spiky of {
      base : int;
      jitter : int;
      spike_probability : float;
      spike_factor : int;
    }
      (** Like [Jittered], but each message independently suffers a
          congestion spike with probability [spike_probability],
          multiplying its delay by [spike_factor] — a heavy-tailed
          network.  Weak machines' rare reorderings (e.g. an
          invalidation overtaken by a whole synchronization chain) need
          such tails to show up at observable rates. *)
(** A latency model as data, so machine specifications can carry one
    (serialized, compared, swept over) and build the function only when a
    simulation starts.  {!of_spec} is the sole interpreter. *)

val of_spec : Wo_sim.Rng.t -> spec -> t
(** [Fixed] ignores the generator; the jittered models consult it once
    per message ([Jittered] exactly as {!jittered} does). *)

val fixed : int -> t

val jittered : Wo_sim.Rng.t -> base:int -> jitter:int -> t
(** [base + uniform(0, jitter)] per message. *)

val scale_nodes : (int * int) list -> t -> t
(** [scale_nodes [(node, factor); ...] inner] multiplies the inner latency
    by [factor] for messages to or from the listed nodes — used to make one
    processor's invalidations slow, as in the Figure-3 scenario. *)

val scale_routes : ((int * int) * int) list -> t -> t
(** [scale_routes [((src, dst), factor); ...] inner] multiplies the inner
    latency on the listed directed routes only — an asymmetric congestion
    model (used by the ablation experiment to widen the windows the
    Section-5.1 mechanisms close). *)
