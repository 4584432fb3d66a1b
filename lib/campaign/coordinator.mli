(** Multi-process campaign coordination.

    Scales a campaign across worker processes — forked locally, or
    started on any host sharing the campaign directory — with no server
    and no IPC beyond the filesystem:

    {v
    <store>.campaign/
      manifest.json            campaign parameters (atomic write)
      locks/shard-NNNNN.lock   claim files: O_CREAT|O_EXCL, "pid hostname"
      segs/shard-NNNNN.seg     one WOCAMPS1 segment per claimed shard
      segs/shard-NNNNN.done    created after the segment's fsync
    v}

    The manifest carries parameters, not cases: case generation is
    deterministic in (families, count, seed), and {!Campaign.plan}'s
    shard partition is a pure function of the parameters, so every
    worker independently reconstructs the identical cell plan and the
    shard indices mean the same thing everywhere.

    Workers claim shards by exclusive lock-file creation, settle fresh
    cells into a private segment (replaying anything the main store or
    a predecessor's segment already settles), fsync, and drop a done
    marker.  A worker killed mid-shard leaves a stale lock (broken by
    any same-host worker once the pid is dead) and a torn segment
    (recovered by the standard store open).  Because verdicts are
    deterministic in the cell, even the worst double-claim race only
    duplicates work, never diverges results — the merged store and the
    findings report are byte-identical to a single-process run's. *)

type t

val create :
  Campaign.config ->
  specs:Wo_machines.Spec.t list ->
  families:string list ->
  count:int ->
  t
(** Initialize (or refresh) the campaign directory next to
    [config.store_path], write the manifest, and ensure the main store
    exists.  Idempotent: re-creating an interrupted campaign with the
    same parameters resumes it.
    @raise Sys_error ["FILE: reason"] when the main store cannot be
    opened ({!Store.openf}); nothing is created then. *)

val attach : store_path:string -> t
(** Reconstruct the plan from an existing campaign directory's
    manifest — the worker-process entry point ([wo campaign --worker]).
    @raise Failure on a missing or malformed manifest. *)

val config : t -> Campaign.config

val shards : t -> int

val cells : t -> int

val shard_done : t -> int -> bool

val done_count : t -> int

type worker_stats = {
  w_claimed : int;  (** shards this worker settled *)
  w_executed : int;  (** cells simulated *)
  w_replayed : int;  (** cells already settled (main store or segment) *)
}

val run_worker :
  ?domains:int ->
  ?max_claims:int ->
  ?on_shard:(shard:int -> executed:int -> replayed:int -> unit) ->
  t ->
  worker_stats
(** Claim-and-settle passes over the shard list until a full pass
    claims nothing (everything done, or held by live owners), then
    return.  [max_claims] bounds the shards taken — the test and CI
    hook for stopping a worker mid-campaign.  Any number of workers
    may run concurrently against the same directory.
    @raise Sys_error ["FILE: reason"] when the main store cannot be
    read ({!Store.Snapshot.load}). *)

val spawn_local : ?domains:int -> workers:int -> t -> int list
(** Fork worker processes running {!run_worker}; returns their pids.
    Call before anything spawns a domain (OCaml 5 forbids forking a
    multi-domain process). *)

val supervise :
  ?on_progress:(done_:int -> total:int -> unit) -> t -> int list -> unit
(** Poll until every shard is done: reap exited workers, and if all of
    them die with shards remaining, settle the remainder in-process
    (breaking the dead workers' stale locks) — the coordinator
    survives kill -9 of any or all of its workers. *)

val merge : t -> int * int
(** Fold every completed segment into the main store in shard order,
    skipping already-settled keys; returns (segments, records
    appended).  Idempotent. *)

val cleanup : t -> unit
(** Remove the campaign directory (after a successful merge). *)
