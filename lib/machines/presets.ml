let default_bus = Coherent.Bus { transfer_cycles = 2 }
let default_net = Coherent.default_net

(* --- uncached machines (Figure 1, configurations 1 and 2) ----------------- *)

let sc_bus_nocache_spec =
  {
    Spec.name = "sc-bus-nocache";
    description =
      "Shared bus, no caches, no write buffer; writes wait for their \
       acknowledgement.  Sequentially consistent.";
    fabric = default_bus;
    memory = Spec.Uncached { write_buffer = None; wait_write_ack = true; modules = 1 };
    model = Spec.Model_sc;
    sync = Spec.Sync_fence;
    local_cost = 1;
  }

let bus_nocache_wb_spec =
  {
    Spec.name = "bus-nocache-wb";
    description =
      "Shared bus, no caches, FIFO write buffer with read bypass and \
       store-to-load forwarding (Figure 1, configuration 1).  \
       Synchronization drains the buffer, so the machine is weakly ordered \
       w.r.t. DRF0 but not sequentially consistent.";
    fabric = default_bus;
    memory =
      Spec.Uncached
        {
          write_buffer =
            Some
              {
                Uncached.depth = 8;
                read_bypass = true;
                forwarding = true;
                drain_delay = 6;
              };
          wait_write_ack = false;
          modules = 1;
        };
    model = Spec.Model_sc;
    sync = Spec.Sync_fence;
    local_cost = 1;
  }

let net_nocache_weak_spec =
  {
    Spec.name = "net-nocache";
    description =
      "General interconnection network, no caches, fire-and-forget writes: \
       accesses issued in program order reach the memory modules out of \
       order (Figure 1, configuration 2).  Not weakly ordered: \
       synchronization does not wait for outstanding writes.";
    fabric = default_net;
    memory =
      Spec.Uncached { write_buffer = None; wait_write_ack = false; modules = 4 };
    model = Spec.Model_sc;
    sync = Spec.Sync_none;
    local_cost = 1;
  }

let net_nocache_rp3_spec =
  {
    Spec.name = "net-nocache-rp3";
    description =
      "General network, no caches; every access waits for its \
       acknowledgement before the next is issued (the RP3 discipline for \
       shared variables).  Sequentially consistent.";
    fabric = default_net;
    memory =
      Spec.Uncached { write_buffer = None; wait_write_ack = true; modules = 4 };
    model = Spec.Model_sc;
    sync = Spec.Sync_fence;
    local_cost = 1;
  }

let rp3_fence_spec =
  {
    Spec.name = "rp3-fence";
    description =
      "General network, no caches, fire-and-forget writes, but \
       synchronization waits for all outstanding acknowledgements (the \
       RP3 fence option the paper cites as functioning as a weakly \
       ordered system).";
    fabric = default_net;
    memory =
      Spec.Uncached { write_buffer = None; wait_write_ack = false; modules = 4 };
    model = Spec.Model_sc;
    sync = Spec.Sync_fence;
    local_cost = 1;
  }

(* --- cached machines (Figure 1 configurations 3-4; Sections 5-6) ---------- *)

let sc_dir_spec =
  {
    Spec.name = "sc-dir";
    description =
      "Directory-based cache-coherent system where a processor issues an \
       access only after all its previous accesses are globally performed \
       (the Scheurich-Dubois sufficient condition).  Sequentially \
       consistent.";
    fabric = default_net;
    memory = Spec.default_cached;
    model = Spec.Model_sc;
    sync = Spec.Sync_sc;
    local_cost = 1;
  }

let bus_cache_spec =
  {
    Spec.name = "bus-cache";
    description =
      "Bus-based cache-coherent system where reads may issue while a \
       previous write's invalidations are outstanding (Figure 1, \
       configuration 3).  Coherent but not sequentially consistent.";
    fabric = default_bus;
    memory = Spec.default_cached;
    model = Spec.Model_sc;
    sync = Spec.Sync_none;
    local_cost = 1;
  }

let net_cache_spec =
  {
    Spec.name = "net-cache";
    description =
      "Directory cache-coherent system over a general network with no \
       ordering discipline at all: accesses issue and reach the directory \
       in program order but do not complete in program order (Figure 1, \
       configuration 4).";
    fabric = default_net;
    memory = Spec.default_cached;
    model = Spec.Model_sc;
    sync = Spec.Sync_none;
    local_cost = 1;
  }

let wo_old_spec =
  (* Definition-1 hardware may serve read-only synchronization from shared
     copies (Test-and-TestAndSet spinning was the recommended idiom for such
     machines); its correctness comes from the processor-side gp gates, not
     from serializing synchronization reads.  Only the Section-5.3
     implementation must treat all synchronization as writes, which is
     exactly the Section-6 comparison this repository reproduces. *)
  {
    Spec.name = "wo-old";
    description =
      "Definition-1 (Dubois/Scheurich/Briggs) weakly ordered hardware: a \
       processor stalls at a synchronization operation until all its \
       previous accesses are globally performed, and stalls after it until \
       the synchronization is globally performed.";
    fabric = default_net;
    memory = Spec.default_cached;
    model = Spec.Model_sc;
    sync = Spec.Sync_def1_stall;
    local_cost = 1;
  }

let wo_new_spec =
  {
    Spec.name = "wo-new";
    description =
      "The paper's Section-5.3 implementation: the processor waits only \
       for its synchronization operation to commit; the outstanding-access \
       counter and per-line reserve bits stall the next processor that \
       synchronizes on the same location instead.  Violates conditions 2 \
       and 3 of Definition 1, weakly ordered w.r.t. DRF0 by Definition 2.";
    fabric = default_net;
    memory = Spec.default_cached;
    model = Spec.Model_sc;
    sync = Spec.Sync_reserve_bit;
    local_cost = 1;
  }

let wo_new_drf1_spec =
  {
    Spec.name = "wo-new-drf1";
    description =
      "The Section-6 refinement of the Section-5.3 implementation: \
       read-only synchronization operations take shared copies and set no \
       reserve bit, so Test-and-TestAndSet spinning is not serialized.";
    fabric = default_net;
    memory = Spec.default_cached;
    model = Spec.Model_sc;
    sync = Spec.Sync_drf1_two_level;
    local_cost = 1;
  }

let ideal_spec =
  {
    Spec.name = "ideal";
    description = Ideal.machine.Machine.description;
    fabric = default_bus;
    memory = Spec.Ideal;
    model = Spec.Model_sc;
    sync = Spec.Sync_sc;
    local_cost = 1;
  }

(* --- relaxed ordering-model machines (the consistency-model zoo) ----------- *)

let tso_wb_spec =
  {
    Spec.name = "tso-wb";
    description =
      "TSO: shared bus, no caches, per-processor FIFO store buffer with \
       store-to-load forwarding.  Reads overtake pending writes (W->R); \
       writes drain in program order; synchronization drains the buffer.";
    fabric = default_bus;
    memory =
      Spec.Uncached { write_buffer = None; wait_write_ack = false; modules = 1 };
    model = Spec.Model_tso { depth = 8; drain_delay = 6 };
    sync = Spec.Sync_fence;
    local_cost = 1;
  }

let pso_wb_spec =
  {
    Spec.name = "pso-wb";
    description =
      "PSO: heavy-tailed network, no caches, per-location store channels \
       draining independently (W->R and W->W relaxed); synchronization \
       drains every channel.  The spiky fabric makes the write-write \
       reordering readily observable.";
    fabric =
      Coherent.Net_spiky
        { base = 4; jitter = 6; spike_probability = 0.2; spike_factor = 8 };
    memory =
      Spec.Uncached { write_buffer = None; wait_write_ack = false; modules = 4 };
    model = Spec.Model_pso { depth = 8; drain_delay = 0 };
    sync = Spec.Sync_fence;
    local_cost = 1;
  }

let ra_window_spec =
  {
    Spec.name = "ra-window";
    description =
      "Release/acquire: general network, no caches, per-location store \
       channels in a bounded window.  Read-only synchronization (acquire) \
       issues without draining; write synchronization (release) drains \
       everything first.";
    fabric = default_net;
    memory =
      Spec.Uncached { write_buffer = None; wait_write_ack = false; modules = 4 };
    model = Spec.Model_ra { window = 8; drain_delay = 6 };
    sync = Spec.Sync_fence;
    local_cost = 1;
  }

let model_specs = [ tso_wb_spec; pso_wb_spec; ra_window_spec ]

let specs =
  [
    ideal_spec;
    sc_bus_nocache_spec;
    bus_nocache_wb_spec;
    net_nocache_weak_spec;
    net_nocache_rp3_spec;
    rp3_fence_spec;
    sc_dir_spec;
    bus_cache_spec;
    net_cache_spec;
    wo_old_spec;
    wo_new_spec;
    wo_new_drf1_spec;
  ]

let spec_of name =
  List.find_opt (fun (s : Spec.t) -> s.Spec.name = name) (specs @ model_specs)

(* --- the machines, all built from their specs ------------------------------ *)

let ideal = Spec.build ideal_spec
let sc_bus_nocache = Spec.build sc_bus_nocache_spec
let bus_nocache_wb = Spec.build bus_nocache_wb_spec
let net_nocache_weak = Spec.build net_nocache_weak_spec
let net_nocache_rp3 = Spec.build net_nocache_rp3_spec
let rp3_fence = Spec.build rp3_fence_spec
let sc_dir = Spec.build sc_dir_spec
let bus_cache_wb = Spec.build bus_cache_spec
let net_cache_relaxed = Spec.build net_cache_spec
let wo_old = Spec.build wo_old_spec
let wo_new = Spec.build wo_new_spec
let wo_new_drf1 = Spec.build wo_new_drf1_spec
let tso_wb = Spec.build tso_wb_spec
let pso_wb = Spec.build pso_wb_spec
let ra_window = Spec.build ra_window_spec
let models = [ tso_wb; pso_wb; ra_window ]

(* The driver configs the cached specs denote, for experiments that vary
   parameters (e.g. Figure 3's slow invalidations) and rebuild with
   {!Coherent.make}. *)
let sc_dir_config = Spec.cached_config sc_dir_spec
let net_cache_config = Spec.cached_config net_cache_spec
let wo_old_config = Spec.cached_config wo_old_spec
let wo_new_config = Spec.cached_config wo_new_spec
let wo_new_drf1_config = Spec.cached_config wo_new_drf1_spec

let all =
  [
    ideal;
    sc_bus_nocache;
    bus_nocache_wb;
    net_nocache_weak;
    net_nocache_rp3;
    rp3_fence;
    sc_dir;
    bus_cache_wb;
    net_cache_relaxed;
    wo_old;
    wo_new;
    wo_new_drf1;
  ]

let weakly_ordered =
  List.filter (fun (m : Machine.t) -> m.Machine.weakly_ordered_drf0) all

let sequentially_consistent =
  List.filter (fun (m : Machine.t) -> m.Machine.sequentially_consistent) all

let find name =
  List.find_opt (fun (m : Machine.t) -> m.Machine.name = name) (all @ models)
