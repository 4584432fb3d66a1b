(** Cache-less machines (Figure 1, configurations 1 and 2).

    Processors talk to memory modules over a bus or a general network;
    the modules and their request/reply protocol are {!Flat_memory},
    shared with {!Ordering}, and this backend is the processor side's
    write path.  The knobs correspond exactly to the performance features the paper
    blames for the Figure-1 violation:

    - a {e write buffer} whose read-bypass lets a read overtake buffered
      writes (the shared-bus violation); store-to-load forwarding from the
      buffer is modelled too;
    - {e fire-and-forget writes} on a jittered network, so accesses issued
      in program order reach memory modules out of order (Lamport's
      network violation);
    - [wait_write_ack] restores sequential consistency RP3-style: a
      processor waits for the acknowledgement of its previous write before
      issuing another access;
    - [flush_buffer_on_sync] makes the buffered-bus machine weakly ordered
      with respect to DRF0: synchronization drains the buffer and waits
      for all outstanding acknowledgements, a classic fence
      implementation. *)

type buffer_config = {
  depth : int;
  read_bypass : bool;  (** reads may overtake buffered writes *)
  forwarding : bool;   (** reads of a buffered location take its value *)
  drain_delay : int;
      (** cycles an entry rests in the buffer before draining to memory —
          the window a bypassing read exploits *)
}

type config = {
  fabric : Memsys.fabric_kind;
  write_buffer : buffer_config option;
  wait_write_ack : bool;
  flush_buffer_on_sync : bool;
  modules : int;  (** memory modules; locations are interleaved round-robin *)
  local_cost : int;
}

val make :
  name:string ->
  description:string ->
  sequentially_consistent:bool ->
  weakly_ordered_drf0:bool ->
  config ->
  Machine.t
