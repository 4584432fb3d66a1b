(** The cross-run persistent verdict store.

    An append-only binary log plus an in-memory hash index, promoting
    {!Wo_workload.Sweep}'s in-run SC memoization to something that
    survives the process: once a (program encoding, machine-spec JSON,
    seed) triple is settled, no future campaign re-runs it.

    {2 On-disk format (version 1)}

    {v
    "WOCAMPS1"                                 8-byte magic + version
    record*                                    append-only
    v}

    Each record is

    {v
    u32le key_len | u32le value_len | u32le checksum | key | value
    v}

    with the checksum FNV-1a (32-bit) over key then value bytes.  Keys
    and values are opaque byte strings; the campaign layer packs
    structured keys itself ({!Campaign}).

    {2 Crash safety}

    Records are appended with a single [write]; a process killed
    mid-append (kill -9) leaves at most one torn record at the tail.
    {!openf} scans the log, indexes every complete record, stops at the
    first short or checksum-failing one and truncates the file there —
    so a crashed campaign loses only its in-flight shard and a resumed
    one skips everything settled.  The scan checksums each record in
    place in its read buffer.  {!sync} forces the log to stable storage
    (machine-crash durability; process crashes need nothing).

    {2 Index}

    The index maps a 60-bit hash of each key — two seeded
    [Hashtbl.seeded_hash] values of the whole key, packed — to its log
    entries.  A lookup reads each candidate entry's key and value, which
    are contiguous on disk, with one positioned read and confirms the
    full key bytes in that buffer, so a hash collision costs one
    comparison and can never alias two distinct triples.

    {2 Ownership}

    A store has one owner: the handle {!openf} returns.  It reads
    through the same descriptor it appends to, so it is not shared
    between processes or between domains — a campaign settles cells on
    many domains but touches its store from the calling one only.
    {!compact} rewrites the log behind a path and must not run while
    any handle on that path is open.

    {2 Errors}

    A path that cannot be opened as a store — missing directory,
    permissions, a directory, a foreign or short header — raises
    [Sys_error "FILE: reason"] from {!openf} and {!compact}; nothing
    else escapes them for a bad path. *)

type t

val openf : string -> t
(** Open (creating if absent) the log at a path, scan and index it,
    and truncate any torn tail.  The index is sized from the
    scanned record count, so buckets are allocated once at their final
    geometry rather than grown (and rehashed) during the scan.  The scan
    buffer is sized to the log, up to 1 MiB.
    @raise Sys_error ["FILE: reason"] on an unopenable path or a
    foreign or short header *)

val close : t -> unit

val length : t -> int
(** Complete records indexed. *)

val live : t -> int
(** Records that are the first for their key hash — what would
    survive {!compact}.  Conservative: a hash shared by two distinct
    keys counts one live, but 60-bit collisions are ~never. *)

val dead_estimate : t -> int
(** [length t - live t]: superseded duplicates that compaction would
    drop. *)

val tail_dropped : t -> int
(** Bytes of torn tail discarded by {!openf} (0 on a clean log). *)

val find : t -> key:string -> string option
(** The value of the first record with exactly this key: one positioned
    read per candidate entry (one, barring a hash collision). *)

val mem : t -> key:string -> bool

val appended : t -> key:string -> bool
(** The first record with exactly this key was appended through this
    handle — it was not in the log {!openf} opened.  One {!find}'s
    worth of work. *)

val add : t -> key:string -> value:string -> unit
(** Append a record and index it.  The store is append-only: adding an
    existing key appends a duplicate record, but {!find} keeps
    returning the first — settled verdicts are immutable. *)

val sync : t -> unit
(** [fsync] the log (call once per shard, not per record).  A no-op when
    this handle has appended nothing since its last [fsync] — a warm
    replay that only reads never touches the disk — except that the
    first [sync] after {!openf} always reaches it, covering bytes a
    killed predecessor left in the page cache and a truncated torn
    tail. *)

val iter : t -> (key:string -> value:string -> unit) -> unit
(** Every indexed record in log order (reads from disk). *)

(** {2 Compaction} *)

type compact_stats = {
  cs_before_records : int;
  cs_after_records : int;
  cs_before_bytes : int;
  cs_after_bytes : int;
}

val compact : string -> compact_stats
(** Rewrite the log at a path keeping only the first record for each
    exact key (the one every [find] answers with), into a fresh
    checksummed file swapped in with an atomic rename.  Crash-safe: the
    new log is fully written and fsync'ed before the rename, and the
    directory is fsync'ed after, so a crash at any point leaves either
    the complete old log or the complete new one.  No handle on the
    path may be open.
    @raise Sys_error ["FILE: reason"] as {!val:openf}, or when the
    rewrite cannot be written or swapped in *)
