type t = {
  name : string;
  description : string;
  happens_before : Execution.t -> Happens_before.t;
}

let drf0 =
  {
    name = "DRF0";
    description =
      "Data-Race-Free-0 (Definition 3): conflicting accesses must be \
       ordered by (po U so)+ where every pair of same-location \
       synchronization operations synchronizes.";
    happens_before = Happens_before.of_execution;
  }

let drf1 =
  {
    name = "DRF1";
    description =
      "Section-6 refinement of DRF0: only write->read synchronization \
       pairs order other processors' accesses, so read-only \
       synchronization (e.g. Test) need not be serialized.";
    happens_before = Happens_before.of_execution_drf1;
  }

let pp ppf t = Format.fprintf ppf "%s" t.name

(* --- hardware ordering models ---------------------------------------------- *)

type relaxation = W_to_r | W_to_w | Acquire_no_drain

type hardware = {
  hname : string;
  hdescription : string;
  relaxations : relaxation list;
  forwarding : bool;
}

let relaxes hw r = List.mem r hw.relaxations

let sc_hw =
  {
    hname = "sc";
    hdescription =
      "Sequentially consistent baseline: every access completes before the \
       next is issued; no program-order edge is relaxed.";
    relaxations = [];
    forwarding = false;
  }

let tso_hw =
  {
    hname = "tso";
    hdescription =
      "Total store order: a per-processor FIFO store buffer lets reads \
       overtake earlier writes (W->R relaxed) and forward from pending \
       writes; writes drain to memory in program order and synchronization \
       drains the buffer.";
    relaxations = [ W_to_r ];
    forwarding = true;
  }

let pso_hw =
  {
    hname = "pso";
    hdescription =
      "Partial store order: per-location store buffers additionally let \
       writes to different locations drain out of program order (W->R and \
       W->W relaxed); synchronization drains every buffer.";
    relaxations = [ W_to_r; W_to_w ];
    forwarding = true;
  }

let ra_hw =
  {
    hname = "ra";
    hdescription =
      "Release/acquire window: pending writes reorder as under PSO, and \
       read-only synchronization (an acquire) issues without draining them; \
       only write synchronization (a release) waits for every previous \
       access to perform.";
    relaxations = [ W_to_r; W_to_w; Acquire_no_drain ];
    forwarding = true;
  }
