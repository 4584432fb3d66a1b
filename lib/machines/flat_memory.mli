(** The memory side shared by the cache-less machines ({!Uncached} and
    {!Ordering}).

    Behind the fabric sit plain memory modules, locations interleaved
    round-robin, each applying requests atomically in arrival order and
    replying with the application time.  Processors tag each request
    (read, write, read-modify-write); the reply finds its operation
    record and continuation through the tag table.  Messages are tapped
    as ["Read"], ["Write"], ["Rmw"], ["ReadReply"], ["WriteAck"] and
    ["RmwReply"], in that slot order.  The two backends differ only in
    how the processor side orders its writes, which stays with them. *)

type t

val create : Driver.env -> modules:int -> Memsys.fabric_kind -> t
(** Build the fabric ({!Driver.fabric}), the memory modules on nodes
    [num_procs ..], and the processors' reply dispatch; register the
    reset of memory and the tag table.  Call it first in a port builder:
    the fabric's RNG split and stats slots precede the backend's. *)

(** {2 Processor side} *)

val read :
  t -> proc:int -> Proc_frontend.memory_op -> Memsys.op -> on_reply:(unit -> unit) -> unit
(** Send a read; at the reply, fill the record, run [on_reply], charge
    the wait since the send ([Sync_commit] for a synchronization read,
    [Read_miss] otherwise) and resume the processor with the value. *)

val rmw :
  t ->
  proc:int ->
  Proc_frontend.memory_op ->
  Memsys.op ->
  Wo_core.Event.rmw ->
  on_reply:(unit -> unit) ->
  unit
(** {!read} for a read-modify-write, charged as [Sync_commit] or
    [Rmw_wait]; the record's written value is filled from the old one. *)

val forward : t -> proc:int -> Proc_frontend.memory_op -> Memsys.op -> Wo_core.Event.value -> unit
(** Complete a read locally with the given value (store-to-load
    forwarding). *)

val write :
  t -> proc:int -> Memsys.op -> Wo_core.Event.value -> (Memsys.op -> unit) -> unit
(** Send a write now; the continuation runs at the acknowledgement. *)

val expect : t -> Memsys.op -> (Memsys.op -> unit) -> int
(** Tag a write that is deposited now and sent later with {!send_write};
    the continuation runs at its acknowledgement. *)

val rebind : t -> int -> (Memsys.op -> unit) -> unit
(** Replace the continuation of an {!expect}ed tag. *)

val send_write :
  t -> proc:int -> tag:int -> Wo_core.Event.loc -> Wo_core.Event.value -> unit

val port :
  t ->
  perform:(int -> Proc_frontend.memory_op -> unit) ->
  fence:(int -> unit) ->
  proc_status:(int -> string) ->
  quiet:(int -> bool) ->
  Memsys.port
(** Assemble the port: final values from memory, a debug dump of every
    processor's status and the unmatched tags, and a drain check that
    raises {!Machine.Machine_error} for a processor that is not [quiet]. *)
