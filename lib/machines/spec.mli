(** Machines as data.

    A machine spec is a small declarative record — fabric, memory
    organisation, synchronization-enforcement policy — from which
    {!build} assembles a runnable {!Machine.t} on the shared {!Driver}.
    Every preset in {!Presets} is such a value ({!Presets.specs}), and
    JSON files ({!of_file}) define new machines without writing OCaml:

    {v
    { "name": "my-machine",
      "fabric": { "kind": "net", "base": 4, "jitter": 6 },
      "memory": { "kind": "cached" },
      "sync": "reserve-bit" }
    v} *)

type sync_policy =
  | Sync_none  (** no enforcement: synchronization treated as data *)
  | Sync_sc
      (** every access gates on the outstanding-access counter (the
          Scheurich–Dubois sufficient condition for sequential
          consistency) *)
  | Sync_fence
      (** synchronization alone waits for all previous accesses;
          uncached: drain buffer + acknowledgements (the RP3 fence);
          cached: gate on the counter, resume at commit *)
  | Sync_def1_stall
      (** Definition-1 hardware: gate synchronization on the counter
          {e and} stall until it is globally performed *)
  | Sync_reserve_bit
      (** the Section-5.3 implementation: wait only for the
          synchronization to commit; reserve bits stall the next
          synchronizing processor instead *)
  | Sync_drf1_two_level
      (** Section-6 refinement of {!Sync_reserve_bit}: read-only
          synchronization takes shared copies and sets no reserve bit *)

type memory =
  | Ideal  (** the atomic interleaving reference machine *)
  | Uncached of {
      write_buffer : Uncached.buffer_config option;
      wait_write_ack : bool;
      modules : int;
    }
  | Cached of { hit_cycles : int; capacity : int option; coarse_counter : bool }

(** The hardware ordering model the machine implements.  [Model_sc] is
    the historical in-order pipeline: the machine is whatever [memory]
    and [sync] say, unchanged.  The relaxed models route the build to
    the {!Ordering} backend over uncached memory: [Model_tso] a
    per-processor FIFO store buffer, [Model_pso] per-location channels,
    [Model_ra] per-location channels in a bounded window with
    release/acquire synchronization.  [sync] still picks enforcement:
    anything but {!Sync_none} makes synchronization operations barriers
    of the model's flavour; {!Sync_none} treats them as data. *)
type model =
  | Model_sc
  | Model_tso of { depth : int; drain_delay : int }
  | Model_pso of { depth : int; drain_delay : int }
  | Model_ra of { window : int; drain_delay : int }

type t = {
  name : string;
  description : string;
  fabric : Memsys.fabric_kind;  (** ignored by {!Ideal} *)
  memory : memory;
  model : model;
      (** relaxed models require [memory] to be [Uncached] (only its
          [modules] count is used) *)
  sync : sync_policy;
  local_cost : int;
}

val default_cached : memory
(** [Cached] with the {!Wo_cache.Cache_ctrl.default_config} knobs. *)

val flags : t -> bool * bool
(** [(sequentially_consistent, weakly_ordered_drf0)], derived from the
    knobs — a spec cannot mislabel its consistency class. *)

val sequentially_consistent : t -> bool
val weakly_ordered_drf0 : t -> bool

val build : t -> Machine.t
(** Assemble the machine.  Specs that reproduce the preset knob
    combinations build byte-identical machines (same results on every
    program and seed). *)

val run_key : t -> Wo_prog.Program.features -> string
(** The identity of the hardware {!build} assembles, as runs of a
    program with the given {!Wo_prog.Program.features} can observe it:
    a structural encoding of the resolved backend config (the ordering
    config, {!uncached_config}, {!cached_config}, or a constant for
    [Ideal]) — everything [build] hands the backend except [name],
    [description] and {!flags} — normalised in two ways.
    - On a sync-free program, the fields only synchronization reads take
      one value: the coherent policy's [sync_as_data], [sync_wait] and
      label, with [Gate_sync_only] read as [Gate_never]
      ([Gate_every_op] stays: it gates data); the cache's
      [reserve_enabled] and [sync_read_shared]; the uncached
      [flush_buffer_on_sync]; the ordering [sync_barriers].
    - An uncached write buffer with read bypass and forwarding (depth
      [d], drain delay [k]) and without [wait_write_ack] is the TSO
      ordering config
      [Tso {depth = d; drain_delay = k}] with the same fabric, modules
      and local cost and [sync_barriers = flush_buffer_on_sync] — but
      only on a loop-free program with at most [d] writes per thread,
      and only when synchronization flushes or the program is
      sync-free: past [d] writes the two buffers count depth
      differently, and an RMW under [Sync_none] waits for the whole
      uncached buffer but only for its own location under TSO.  There
      the runs agree in everything but [Ordering]'s [model.*]
      counters, which no verdict reads.
    Two specs with equal keys for a program produce the same outcome,
    trace, cycles, finish times, stall and tap records and stats (but
    [model.*]) on it at every seed, and differ only where the machine's
    name is printed: [Machine_error] and watchdog text (whose wording
    also differs between the two buffer implementations).  {!Wo_campaign.Campaign.run} runs one seed batch
    per (program, DRF0 flag, expected-SC bit, key) class on that
    contract.
    @raise Invalid_argument where {!build} would. *)

val uncached_config : t -> Uncached.config
(** The uncached driver config this spec denotes.
    @raise Invalid_argument if [memory] is not [Uncached]. *)

val cached_config : t -> Coherent.config
(** The coherent driver config this spec denotes.
    @raise Invalid_argument if [memory] is not [Cached]. *)

val model_hardware : model -> Wo_core.Sync_model.hardware
(** The axiomatic descriptor of the spec's ordering model, for the
    reference enumerator ({!Wo_prog.Relaxed}); {!Wo_core.Sync_model.sc_hw}
    for [Model_sc]. *)

val model_to_string : model -> string
(** ["sc"], ["tso"], ["pso"] or ["ra"]. *)

val model_of_string : string -> model option
(** The inverse, with the default knobs (depth/window 8, drain delay 6)
    for the relaxed models. *)

(** {2 JSON} *)

val to_json : t -> Wo_obs.Json.t
val to_string : ?pretty:bool -> t -> string

val of_string : string -> (t, string) result
(** Parse a spec from JSON text.  Missing fields default: [description] to [""], [fabric] to
    {!Coherent.default_net}, [model] to [Model_sc], [memory] to
    {!default_cached} (one-module uncached when a relaxed model is
    given), [sync] to [Sync_none], [local_cost] to [1] (at least 1:
    every local instruction takes a cycle).  The [model]
    field accepts a bare name (["tso"], with default knobs) or an object
    ([{"kind":"ra","window":8,"drain_delay":6}]); a relaxed model with
    explicit cached or ideal memory is rejected. *)

val of_file : string -> (t, string) result

(** {2 Grids} *)

val grid :
  ?fabrics:Memsys.fabric_kind list ->
  ?syncs:sync_policy list ->
  ?models:model list ->
  t ->
  t list
(** The cross product of fabric, sync and model variations of a base
    spec, each named [base/<fabric-slug>+<sync>] with an [@<model>]
    suffix for relaxed models; omitted axes keep the base value.
    Relaxed grid points over a cached or ideal base take the default
    one-module uncached memory. *)
