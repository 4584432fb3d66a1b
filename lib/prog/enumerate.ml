exception Limit_exceeded

type strategy = Naive | Por

type stats = { executions : int; states : int; truncated : bool }

(* Advance every processor that can finish without another memory access;
   such steps commute with everything, so they are not branch points and
   skipping them avoids enumerating duplicate executions. *)
let rec drain_silent state =
  let silent =
    List.find_map
      (fun p ->
        let state', ev = Interp.step state p in
        match ev with None -> Some state' | Some _ -> None)
      (Interp.runnable state)
  in
  match silent with None -> state | Some state' -> drain_silent state'

(* Two pending steps of different processors commute unless they conflict:
   same location with a write component, or either is a synchronization
   operation (synchronization order is observable through happens-before,
   so sync steps are conservatively dependent on everything). *)
let dependent (a : Interp.access) (b : Interp.access) =
  a.Interp.sync || b.Interp.sync
  || (a.Interp.loc = b.Interp.loc && (a.Interp.writes || b.Interp.writes))

(* Children of a drained, non-final node, with the event taken on the edge
   (consumed by the incremental DRF0 checker) and the sleep set each child
   inherits.  A sleep set is an int bitset (bit [p] = processor [p] asleep):
   membership, filtering and intersection are single machine-word operations
   instead of the linear [List.mem]/[List.assoc] scans run once per child,
   and bitsets compare and intersect in O(1) inside the stateful visited
   table.  Sleeping processors' pending steps are already covered by a
   sibling subtree elsewhere in the search; exploring them here would only
   revisit Mazurkiewicz-equivalent interleavings.

   Sleep-set discipline (Godefroid): iterate awake processors in ascending
   order; the child for processor [p] sleeps on every processor of
   [sleep ∪ done-before-p] whose pending step is independent of [p]'s step.
   Pending accesses are stable under other processors' steps (locations are
   static), so sleep entries stay valid until the sleeper itself runs —
   which, while it sleeps, it never does. *)
let children_of ~strategy state sleep =
  let procs = Interp.runnable state in
  match procs with
  | [] -> None (* complete execution *)
  | _ ->
    Some
      (match strategy with
      | Naive ->
        List.map
          (fun p ->
            let state', ev = Interp.step state p in
            (state', ev, 0))
          procs
      | Por ->
        (* After [drain_silent] every runnable processor has a pending
           memory operation, so [peek] cannot return [None]. *)
        let pending =
          List.map (fun p -> (p, Option.get (Interp.peek state p))) procs
        in
        let runnable_mask =
          List.fold_left (fun m (p, _) -> m lor (1 lsl p)) 0 pending
        in
        let sleep = sleep land runnable_mask in
        let rec expand sleep_now acc = function
          | [] -> List.rev acc
          | (p, ap) :: rest ->
            if sleep land (1 lsl p) <> 0 then expand sleep_now acc rest
            else
              let child_sleep =
                List.fold_left
                  (fun m (q, aq) ->
                    if sleep_now land (1 lsl q) <> 0 && not (dependent ap aq)
                    then m lor (1 lsl q)
                    else m)
                  0 pending
              in
              let state', ev = Interp.step state p in
              expand
                (sleep_now lor (1 lsl p))
                ((state', ev, child_sleep) :: acc)
                rest
        in
        expand sleep [] pending)

(* Lazy depth-first enumeration of complete executions from an explicit
   root; shared by the naive oracle, the reduced enumerator, and the
   per-domain workers of the parallel DRF0 checker. *)
let execution_seq ~strategy ~max_events ~max_executions (root, root_sleep) =
  let produced = ref 0 in
  let rec leaves state sleep : Wo_core.Execution.t Seq.t =
   fun () ->
    let state = drain_silent state in
    if Interp.events_so_far state > max_events then raise Limit_exceeded;
    match children_of ~strategy state sleep with
    | None ->
      incr produced;
      if !produced > max_executions then raise Limit_exceeded;
      Seq.Cons (Interp.execution state, Seq.empty)
    | Some kids ->
      Seq.concat_map
        (fun (state', _ev, sleep') -> leaves state' sleep')
        (List.to_seq kids)
        ()
  in
  leaves root root_sleep

(* More processors than {!Program.max_procs} is far beyond anything
   enumerable anyway, but fail loudly rather than alias bits. *)
let bitset_guard program =
  if Program.num_procs program > Program.max_procs then
    invalid_arg "Enumerate: more processors than sleep-set bitset bits"

let executions ?(max_events = 64) ?(max_executions = 1_000_000) program =
  bitset_guard program;
  execution_seq ~strategy:Naive ~max_events ~max_executions
    (Interp.init program, 0)

let executions_por ?(max_events = 64) ?(max_executions = 1_000_000) program =
  bitset_guard program;
  execution_seq ~strategy:Por ~max_events ~max_executions
    (Interp.init program, 0)

module Outcome_set = Set.Make (Outcome)

(* Eager outcome collection; [raise_on_limit] decides whether bounds raise
   or merely truncate.  Outcomes are deduplicated incrementally, keeping
   memory proportional to the number of distinct outcomes rather than
   enumerated executions. *)
let collect_outcomes ~strategy ~max_events ~max_executions ~raise_on_limit
    program =
  bitset_guard program;
  let produced = ref 0 in
  let states = ref 0 in
  let outcomes = ref Outcome_set.empty in
  let truncated = ref false in
  let exception Stop in
  let limit () =
    if raise_on_limit then raise Limit_exceeded
    else begin
      truncated := true;
      raise Stop
    end
  in
  let rec go state sleep =
    incr states;
    let state = drain_silent state in
    if Interp.events_so_far state > max_events then limit ();
    match children_of ~strategy state sleep with
    | None ->
      incr produced;
      outcomes := Outcome_set.add (Interp.outcome state) !outcomes;
      if !produced >= max_executions then limit ()
    | Some kids -> List.iter (fun (state', _ev, sleep') -> go state' sleep') kids
  in
  (try go (Interp.init program) 0 with Stop -> ());
  ( Outcome_set.elements !outcomes,
    { executions = !produced; states = !states; truncated = !truncated } )

let outcomes ?(strategy = Por) ?(max_events = 64)
    ?(max_executions = 1_000_000) program =
  fst
    (collect_outcomes ~strategy ~max_events ~max_executions
       ~raise_on_limit:true program)

let outcomes_with_stats ?(strategy = Por) ?(max_events = 64)
    ?(max_executions = 1_000_000) program =
  collect_outcomes ~strategy ~max_events ~max_executions ~raise_on_limit:false
    program

(* --- DRF0 quantification -------------------------------------------------- *)

(* Search-effort counters shared by the two checker implementations so the
   benches can compare them like-for-like. *)
type counter = { mutable c_states : int; mutable c_executions : int }

let counter_stats c =
  { executions = c.c_executions; states = c.c_states; truncated = false }

(* Closure-based checking (the oracle): walk the same DFS and run the full
   Warshall-closure race scan on every complete execution. *)
let check_closure ~strategy ?model ~max_events ~max_executions counter
    program =
  let produced = ref 0 in
  let exception Racy of Wo_core.Drf0.report in
  let rec go state sleep =
    counter.c_states <- counter.c_states + 1;
    let state = drain_silent state in
    if Interp.events_so_far state > max_events then raise Limit_exceeded;
    match children_of ~strategy state sleep with
    | None ->
      incr produced;
      counter.c_executions <- counter.c_executions + 1;
      if !produced > max_executions then raise Limit_exceeded;
      let r = Wo_core.Drf0.check ?model (Interp.execution state) in
      if r.Wo_core.Drf0.races <> [] then raise (Racy r)
    | Some kids -> List.iter (fun (state', _ev, sleep') -> go state' sleep') kids
  in
  try
    go (Interp.init program) 0;
    Ok ()
  with Racy r -> Error r

(* Complete a (racy) prefix into a full execution for the report.  The
   round-robin rotation dodges the trivial livelock a fixed-processor
   completion would hit on spin loops; the step budget is a backstop — a
   truncated completion still contains the racy prefix, which is all the
   report needs. *)
let complete_for_report ~max_events state =
  let rec go state rot budget =
    if budget = 0 then state
    else
      match Interp.runnable state with
      | [] -> state
      | procs ->
        let p = List.nth procs (rot mod List.length procs) in
        go (fst (Interp.step state p)) (rot + 1) (budget - 1)
  in
  go state 0 ((4 * max_events) + 64)

(* Path-incremental checking: thread a vector-clock checker through the
   DFS, pushing each edge's event and popping on backtrack.  The first
   racing event condemns every completion of its prefix (happens-before
   between two events depends only on the prefix up to the later one), so
   the subtree is pruned on the spot and the per-leaf closure disappears.
   The racy prefix is completed round-robin and re-checked with the
   closure oracle so callers get the same report shape either way. *)
let check_inc ~mode ~strategy ?model ~max_events ~max_executions counter
    program =
  let inc =
    Wo_core.Drf0_inc.create ~mode ~nprocs:(Program.num_procs program) ()
  in
  let exception Racy of Wo_core.Drf0.report in
  let racy state =
    let completed = complete_for_report ~max_events state in
    raise (Racy (Wo_core.Drf0.check ?model (Interp.execution completed)))
  in
  let produced = ref 0 in
  let rec go state sleep =
    counter.c_states <- counter.c_states + 1;
    let state = drain_silent state in
    if Interp.events_so_far state > max_events then raise Limit_exceeded;
    match children_of ~strategy state sleep with
    | None ->
      incr produced;
      counter.c_executions <- counter.c_executions + 1;
      if !produced > max_executions then raise Limit_exceeded
    | Some kids ->
      List.iter
        (fun (state', ev, sleep') ->
          match ev with
          | None -> go state' sleep'
          | Some e -> (
            match Wo_core.Drf0_inc.push inc e with
            | Some _race -> racy state'
            | None ->
              go state' sleep';
              Wo_core.Drf0_inc.pop inc))
        kids
  in
  try
    go (Interp.init program) 0;
    Ok ()
  with Racy r -> Error r

(* The incremental fast path covers the two built-in models; any other
   synchronization model falls back to the closure-based oracle. *)
let incremental_mode model =
  match model with
  | None -> Some Wo_core.Drf0_inc.Mode_drf0
  | Some m -> Wo_core.Drf0_inc.mode_of_model m

let check_drf0_with_stats ?(strategy = Por) ?model ?(max_events = 64)
    ?(max_executions = 1_000_000) program =
  bitset_guard program;
  let counter = { c_states = 0; c_executions = 0 } in
  let result =
    match incremental_mode model with
    | Some mode ->
      check_inc ~mode ~strategy ?model ~max_events ~max_executions counter
        program
    | None ->
      check_closure ~strategy ?model ~max_events ~max_executions counter
        program
  in
  (result, counter_stats counter)

let check_drf0 ?strategy ?model ?max_events ?max_executions program =
  fst (check_drf0_with_stats ?strategy ?model ?max_events ?max_executions program)

let check_drf0_closure_with_stats ?(strategy = Por) ?model ?(max_events = 64)
    ?(max_executions = 1_000_000) program =
  bitset_guard program;
  let counter = { c_states = 0; c_executions = 0 } in
  let result =
    check_closure ~strategy ?model ~max_events ~max_executions counter program
  in
  (result, counter_stats counter)

let check_drf0_closure ?strategy ?model ?max_events ?max_executions program =
  fst
    (check_drf0_closure_with_stats ?strategy ?model ?max_events
       ?max_executions program)

(* --- stateful (DAG) exploration -------------------------------------------- *)

(* The tree enumerators above forget where they have been: a state reached
   by two commutation-inequivalent paths is expanded twice, once per path.
   The stateful enumerators key a visited table ({!Visited}) on canonical
   encodings ({!State_key}) of the interpreter state, turning the search
   tree into a DAG — convergent schedules (and, for the DRF0 quantifier,
   whole symmetry orbits) are expanded once.  Soundness of caching under
   sleep sets follows Godefroid's discipline: a revisit is pruned only when
   the cached claim's sleep set is a subset of ours (the cached exploration
   ran with at most as much pruning); otherwise the entry is widened to the
   intersection and re-explored. *)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* A table only one domain touches needs no lock striping: one stripe
   grows as one region, instead of 64 that each start small. *)
let visited_table ~domains =
  if domains = 1 then Visited.create ~shards:1 () else Visited.create ()

type stateful_stats = {
  sf_states : int;
  sf_distinct : int;
  sf_hits : int;
  sf_executions : int;
  sf_steals : int;
  sf_per_domain : int array;
}

let emit_stateful_obs ~name (s : stateful_stats) =
  let r = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled r then begin
    let c track n v =
      Wo_obs.Recorder.counter r ~cat:Wo_obs.Recorder.Enum ~track ~name:n ~ts:0
        ~value:v
    in
    c 0 (name ^ ".states") s.sf_states;
    c 0 (name ^ ".visited_distinct") s.sf_distinct;
    c 0 (name ^ ".visited_hits") s.sf_hits;
    c 0 (name ^ ".steals") s.sf_steals;
    Array.iteri (fun i v -> c i (name ^ ".domain_expanded") v) s.sf_per_domain
  end

(* Two execution engines share every stateful walk: the AST interpreter
   (the oracle) and the compiled interpreter (the default — int-coded
   ops, packed keys).  [Compiled] silently falls back to the AST path
   when the program exceeds a compilation bound
   ({!Prog_compile.compilable}), so the observable behaviour never
   depends on the engine. *)
type engine = Compiled | Ast

(* Compiled mirrors of [drain_silent]/[children_of].  [Cinterp.peek]
   returns the same {!Interp.access} record, so the independence test
   ([dependent]) is shared verbatim. *)
let rec c_drain_silent state =
  let silent =
    List.find_map
      (fun p ->
        let state', ev = Cinterp.step state p in
        match ev with None -> Some state' | Some _ -> None)
      (Cinterp.runnable state)
  in
  match silent with None -> state | Some state' -> c_drain_silent state'

let c_children_of ~strategy state sleep =
  let procs = Cinterp.runnable state in
  match procs with
  | [] -> None
  | _ ->
    Some
      (match strategy with
      | Naive ->
        List.map
          (fun p ->
            let state', ev = Cinterp.step state p in
            (state', ev, 0))
          procs
      | Por ->
        let pending =
          List.map (fun p -> (p, Option.get (Cinterp.peek state p))) procs
        in
        let runnable_mask =
          List.fold_left (fun m (p, _) -> m lor (1 lsl p)) 0 pending
        in
        let sleep = sleep land runnable_mask in
        let rec expand sleep_now acc = function
          | [] -> List.rev acc
          | (p, ap) :: rest ->
            if sleep land (1 lsl p) <> 0 then expand sleep_now acc rest
            else
              let child_sleep =
                List.fold_left
                  (fun m (q, aq) ->
                    if sleep_now land (1 lsl q) <> 0 && not (dependent ap aq)
                    then m lor (1 lsl q)
                    else m)
                  0 pending
              in
              let state', ev = Cinterp.step state p in
              expand
                (sleep_now lor (1 lsl p))
                ((state', ev, child_sleep) :: acc)
                rest
        in
        expand sleep [] pending)

(* Trace counters for the compiled path: throughput plus the off-heap
   table's footprint and probe-length histogram (one counter per log2
   bucket, bucket index as the track).  Behind the recorder's enabled
   test, like every other emission. *)
let emit_compiled_obs ~elapsed ~tbl (s : stateful_stats) =
  let r = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled r then begin
    let c track n v =
      Wo_obs.Recorder.counter r ~cat:Wo_obs.Recorder.Enum ~track ~name:n ~ts:0
        ~value:v
    in
    c 0 "compiled.states_per_sec"
      (if elapsed > 0. then
         int_of_float (float_of_int s.sf_states /. elapsed)
       else 0);
    c 0 "visited.arena_bytes" (Visited.arena_bytes tbl);
    Array.iteri (fun i v -> c i "visited.probe_len" v) (Visited.probe_hist tbl)
  end

let ast_outcomes_stateful ~strategy ~max_events ~max_executions ~num_domains
    program =
  let tbl = visited_table ~domains:num_domains in
  let leaves = Atomic.make 0 in
  (* Per-worker slots are written only by their owner and read after the
     scheduler joins every domain, so plain arrays are race-free. *)
  let per_domain = Array.make num_domains 0 in
  let outs = Array.make num_domains Outcome_set.empty in
  let wstats =
    Wsq.run ~domains:num_domains
      ~roots:[ (Interp.init program, 0) ]
      (fun ~worker ~push ~hungry ~halt:_ (state0, sleep0) ->
        let rec go state sleep =
          let state = drain_silent state in
          if Interp.events_so_far state > max_events then raise Limit_exceeded;
          (* Outcomes name concrete processors and locations, so the key is
             the exact snapshot — no symmetry quotient.  A skipped state's
             subtree (restricted by a sleep subset of ours) has already fed
             every outcome it can reach into some worker's accumulator. *)
          match
            Visited.try_claim tbl (State_key.exact (Interp.view state)) sleep
          with
          | `Skip -> ()
          | `Explore sleep -> (
            per_domain.(worker) <- per_domain.(worker) + 1;
            match children_of ~strategy state sleep with
            | None ->
              if Atomic.fetch_and_add leaves 1 >= max_executions then
                raise Limit_exceeded;
              outs.(worker) <- Outcome_set.add (Interp.outcome state) outs.(worker)
            | Some kids -> (
              let tasks = List.map (fun (s, _ev, sl) -> (s, sl)) kids in
              match tasks with
              | (s1, sl1) :: (_ :: _ as rest) when hungry () ->
                (* expose siblings for stealing, recurse into the first *)
                List.iter push rest;
                go s1 sl1
              | tasks -> List.iter (fun (s, sl) -> go s sl) tasks))
        in
        go state0 sleep0)
  in
  let outcomes =
    Array.fold_left Outcome_set.union Outcome_set.empty outs
  in
  let stats =
    {
      sf_states = Array.fold_left ( + ) 0 per_domain;
      sf_distinct = Visited.size tbl;
      sf_hits = Visited.hits tbl;
      sf_executions = Atomic.get leaves;
      sf_steals = wstats.Wsq.steals;
      sf_per_domain = per_domain;
    }
  in
  emit_stateful_obs ~name:"stateful.outcomes" stats;
  (Outcome_set.elements outcomes, stats)

(* The compiled twin: same scheduler, same claim discipline, but
   Cinterp states and packed exact keys.  Outcome sets are identical to
   the AST path's (each engine's dedup is sound for its own state
   space, and the two state spaces generate the same executions). *)
let c_outcomes_stateful ~strategy ~max_events ~max_executions ~num_domains cp =
  let t0 = Unix.gettimeofday () in
  let tbl = visited_table ~domains:num_domains in
  let leaves = Atomic.make 0 in
  let per_domain = Array.make num_domains 0 in
  let outs = Array.make num_domains Outcome_set.empty in
  let wstats =
    Wsq.run ~domains:num_domains
      ~roots:[ (Cinterp.init cp, 0) ]
      (fun ~worker ~push ~hungry ~halt:_ (state0, sleep0) ->
        let rec go state sleep =
          let state = c_drain_silent state in
          if Cinterp.events_so_far state > max_events then
            raise Limit_exceeded;
          match Visited.try_claim tbl (Cinterp.exact_key state) sleep with
          | `Skip -> ()
          | `Explore sleep -> (
            per_domain.(worker) <- per_domain.(worker) + 1;
            match c_children_of ~strategy state sleep with
            | None ->
              if Atomic.fetch_and_add leaves 1 >= max_executions then
                raise Limit_exceeded;
              outs.(worker) <-
                Outcome_set.add (Cinterp.outcome state) outs.(worker)
            | Some kids -> (
              let tasks = List.map (fun (s, _ev, sl) -> (s, sl)) kids in
              match tasks with
              | (s1, sl1) :: (_ :: _ as rest) when hungry () ->
                List.iter push rest;
                go s1 sl1
              | tasks -> List.iter (fun (s, sl) -> go s sl) tasks))
        in
        go state0 sleep0)
  in
  let outcomes = Array.fold_left Outcome_set.union Outcome_set.empty outs in
  let stats =
    {
      sf_states = Array.fold_left ( + ) 0 per_domain;
      sf_distinct = Visited.size tbl;
      sf_hits = Visited.hits tbl;
      sf_executions = Atomic.get leaves;
      sf_steals = wstats.Wsq.steals;
      sf_per_domain = per_domain;
    }
  in
  emit_stateful_obs ~name:"stateful.outcomes" stats;
  emit_compiled_obs ~elapsed:(Unix.gettimeofday () -. t0) ~tbl stats;
  (Outcome_set.elements outcomes, stats)

let outcomes_stateful ?(engine = Compiled) ?(strategy = Por) ?(max_events = 64)
    ?(max_executions = 1_000_000) ?domains program =
  bitset_guard program;
  let num_domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  match
    match engine with Compiled -> Prog_compile.compile program | Ast -> None
  with
  | Some cp ->
    c_outcomes_stateful ~strategy ~max_events ~max_executions ~num_domains cp
  | None ->
    ast_outcomes_stateful ~strategy ~max_events ~max_executions ~num_domains
      program

(* Internal signal: a race was found; carries the closure-checked report of
   the completed racy execution. *)
exception Racy_state of Wo_core.Drf0.report

let stateful_racy ?model ~max_events state =
  let completed = complete_for_report ~max_events state in
  raise (Racy_state (Wo_core.Drf0.check ?model (Interp.execution completed)))

(* One DAG walk from [root]; [inc] must agree with the path to [root].
   [offload] may hand sibling subtrees to the scheduler (returning true)
   instead of having them explored inline. *)
let drf0_dag_walk ~strategy ~symmetry ?model ~max_events ~max_executions ~tbl
    ~leaves ~on_node ~offload inc root root_sleep =
  let rec go state sleep =
    let state = drain_silent state in
    if Interp.events_so_far state > max_events then raise Limit_exceeded;
    (* The DRF0 verdict is isomorphism-invariant, so the key quotients by
       processor symmetry and location renaming; the arrangement [order]
       transports the sleep bitset into canonical coordinates and back. *)
    let key, order =
      State_key.canonical ~symmetry (Interp.view state)
        (Wo_core.Drf0_inc.summary inc)
    in
    match Visited.try_claim tbl key (State_key.map_sleep ~order sleep) with
    | `Skip -> ()
    | `Explore canon_sleep -> (
      on_node ();
      let sleep = State_key.unmap_sleep ~order canon_sleep in
      match children_of ~strategy state sleep with
      | None ->
        if Atomic.fetch_and_add leaves 1 >= max_executions then
          raise Limit_exceeded
      | Some kids -> (
        let explore (state', ev, sleep') =
          match ev with
          | None -> go state' sleep'
          | Some e -> (
            match Wo_core.Drf0_inc.push inc e with
            | Some _race -> stateful_racy ?model ~max_events state'
            | None ->
              go state' sleep';
              Wo_core.Drf0_inc.pop inc)
        in
        match kids with
        | first :: (_ :: _ as rest) when offload rest -> explore first
        | kids -> List.iter explore kids))
  in
  go root root_sleep

(* A task handed to the scheduler carries only the interpreter state; the
   incremental checker is rebuilt by replaying the path's events.  The
   replay cannot race for tasks spawned by a walk — every edge was checked
   before its subtree was offloaded — but a defensive check costs nothing. *)
let replay_task ?model ~mode ~nprocs ~max_events state =
  let inc = Wo_core.Drf0_inc.create ~mode ~nprocs () in
  List.iter
    (fun e ->
      match Wo_core.Drf0_inc.push inc e with
      | None -> ()
      | Some _race -> stateful_racy ?model ~max_events state)
    (Wo_core.Execution.events (Interp.execution state));
  inc

(* Compiled twins of the DRF0 walk machinery.  Identical discipline;
   only the interpreter and the canonical key construction differ, and
   the sleep transport reuses State_key's arrangement maps. *)
let c_complete_for_report ~max_events state =
  let rec go state rot budget =
    if budget = 0 then state
    else
      match Cinterp.runnable state with
      | [] -> state
      | procs ->
        let p = List.nth procs (rot mod List.length procs) in
        go (fst (Cinterp.step state p)) (rot + 1) (budget - 1)
  in
  go state 0 ((4 * max_events) + 64)

let c_stateful_racy ?model ~max_events state =
  let completed = c_complete_for_report ~max_events state in
  raise (Racy_state (Wo_core.Drf0.check ?model (Cinterp.execution completed)))

let c_drf0_dag_walk ~strategy ~symmetry ?model ~max_events ~max_executions
    ~tbl ~leaves ~on_node ~offload inc root root_sleep =
  (* Key working memory: one per walk, so one per stolen task. *)
  let workspace = Cinterp.key_workspace (Cinterp.compiled root) in
  let rec go state sleep =
    let state = c_drain_silent state in
    if Cinterp.events_so_far state > max_events then raise Limit_exceeded;
    let key, order = Cinterp.canonical_key ~symmetry workspace state inc in
    match Visited.try_claim tbl key (State_key.map_sleep ~order sleep) with
    | `Skip -> ()
    | `Explore canon_sleep -> (
      on_node ();
      let sleep = State_key.unmap_sleep ~order canon_sleep in
      match c_children_of ~strategy state sleep with
      | None ->
        if Atomic.fetch_and_add leaves 1 >= max_executions then
          raise Limit_exceeded
      | Some kids -> (
        let explore (state', ev, sleep') =
          match ev with
          | None -> go state' sleep'
          | Some e -> (
            match Wo_core.Drf0_inc.push inc e with
            | Some _race -> c_stateful_racy ?model ~max_events state'
            | None ->
              go state' sleep';
              Wo_core.Drf0_inc.pop inc)
        in
        match kids with
        | first :: (_ :: _ as rest) when offload rest -> explore first
        | kids -> List.iter explore kids))
  in
  go root root_sleep

let c_replay_task ?model ~mode ~nprocs ~max_events state =
  let inc = Wo_core.Drf0_inc.create ~mode ~nprocs () in
  List.iter
    (fun e ->
      match Wo_core.Drf0_inc.push inc e with
      | None -> ()
      | Some _race -> c_stateful_racy ?model ~max_events state)
    (Wo_core.Execution.events (Cinterp.execution state));
  inc

(* Compiled check: the same sequential-rerun discipline as the AST path,
   so racy reports are deterministic across domain counts — and equal to
   the AST path's, because both sequential walks visit children in tree
   order with identical events, and a skipped subtree's states were
   fully explored (race-free) earlier in DFS order. *)
let c_check_drf0_stateful ~strategy ?model ~symmetry ~max_events
    ~max_executions ~num_domains ~mode cp =
  let t0 = Unix.gettimeofday () in
  let nprocs = cp.Prog_compile.nprocs in
  let final_tbl = ref None in
  let run_seq () =
    let tbl = visited_table ~domains:1 in
    final_tbl := Some tbl;
    let leaves = Atomic.make 0 in
    let states = ref 0 in
    let inc = Wo_core.Drf0_inc.create ~mode ~nprocs () in
    let result =
      try
        c_drf0_dag_walk ~strategy ~symmetry ?model ~max_events ~max_executions
          ~tbl ~leaves
          ~on_node:(fun () -> incr states)
          ~offload:(fun _ -> false)
          inc (Cinterp.init cp) 0;
        Ok ()
      with Racy_state r -> Error r
    in
    ( result,
      {
        sf_states = !states;
        sf_distinct = Visited.size tbl;
        sf_hits = Visited.hits tbl;
        sf_executions = Atomic.get leaves;
        sf_steals = 0;
        sf_per_domain = [| !states |];
      } )
  in
  let result, stats =
    if num_domains = 1 then run_seq ()
    else begin
      let tbl = Visited.create () in
      final_tbl := Some tbl;
      let leaves = Atomic.make 0 in
      let per_domain = Array.make num_domains 0 in
      let par =
        try
          Ok
            (Wsq.run ~domains:num_domains
               ~roots:[ (Cinterp.init cp, 0) ]
               (fun ~worker ~push ~hungry ~halt:_ (state0, sleep0) ->
                 let inc =
                   c_replay_task ?model ~mode ~nprocs ~max_events state0
                 in
                 c_drf0_dag_walk ~strategy ~symmetry ?model ~max_events
                   ~max_executions ~tbl ~leaves
                   ~on_node:(fun () ->
                     per_domain.(worker) <- per_domain.(worker) + 1)
                   ~offload:(fun rest ->
                     hungry ()
                     &&
                     (List.iter (fun (s, _ev, sl) -> push (s, sl)) rest;
                      true))
                   inc state0 sleep0))
        with Racy_state _ -> Error ()
      in
      match par with
      | Ok wstats ->
        ( Ok (),
          {
            sf_states = Array.fold_left ( + ) 0 per_domain;
            sf_distinct = Visited.size tbl;
            sf_hits = Visited.hits tbl;
            sf_executions = Atomic.get leaves;
            sf_steals = wstats.Wsq.steals;
            sf_per_domain = per_domain;
          } )
      | Error () -> run_seq ()
    end
  in
  emit_stateful_obs ~name:"stateful.drf0" stats;
  (match !final_tbl with
  | Some tbl ->
    emit_compiled_obs ~elapsed:(Unix.gettimeofday () -. t0) ~tbl stats
  | None -> ());
  (result, stats)

let check_drf0_stateful ?(engine = Compiled) ?(strategy = Por) ?model
    ?(symmetry = true) ?(max_events = 64) ?(max_executions = 1_000_000)
    ?domains program =
  bitset_guard program;
  let num_domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  match incremental_mode model with
  | None ->
    (* Custom synchronization model: there is no vector-clock summary to
       hash soundly, so fall back to the closure-based tree oracle. *)
    let result, (s : stats) =
      check_drf0_closure_with_stats ~strategy ?model ~max_events
        ~max_executions program
    in
    ( result,
      {
        sf_states = s.states;
        sf_distinct = 0;
        sf_hits = 0;
        sf_executions = s.executions;
        sf_steals = 0;
        sf_per_domain = [| s.states |];
      } )
  | Some mode
    when (match engine with Compiled -> true | Ast -> false)
         && Prog_compile.compilable program ->
    let cp = Option.get (Prog_compile.compile program) in
    c_check_drf0_stateful ~strategy ?model ~symmetry ~max_events
      ~max_executions ~num_domains ~mode cp
  | Some mode ->
    let nprocs = Program.num_procs program in
    (* Sequential walk: one incremental checker rides the DFS (no replay),
       children explored in tree order, so the first racy prefix found —
       and hence the report — coincides with [check_drf0]'s. *)
    let run_seq () =
      let tbl = visited_table ~domains:1 in
      let leaves = Atomic.make 0 in
      let states = ref 0 in
      let inc = Wo_core.Drf0_inc.create ~mode ~nprocs () in
      let result =
        try
          drf0_dag_walk ~strategy ~symmetry ?model ~max_events ~max_executions
            ~tbl ~leaves
            ~on_node:(fun () -> incr states)
            ~offload:(fun _ -> false)
            inc (Interp.init program) 0;
          Ok ()
        with Racy_state r -> Error r
      in
      ( result,
        {
          sf_states = !states;
          sf_distinct = Visited.size tbl;
          sf_hits = Visited.hits tbl;
          sf_executions = Atomic.get leaves;
          sf_steals = 0;
          sf_per_domain = [| !states |];
        } )
    in
    let result, stats =
      if num_domains = 1 then run_seq ()
      else begin
        let tbl = Visited.create () in
        let leaves = Atomic.make 0 in
        let per_domain = Array.make num_domains 0 in
        let par =
          try
            Ok
              (Wsq.run ~domains:num_domains
                 ~roots:[ (Interp.init program, 0) ]
                 (fun ~worker ~push ~hungry ~halt:_ (state0, sleep0) ->
                   let inc =
                     replay_task ?model ~mode ~nprocs ~max_events state0
                   in
                   drf0_dag_walk ~strategy ~symmetry ?model ~max_events
                     ~max_executions ~tbl ~leaves
                     ~on_node:(fun () ->
                       per_domain.(worker) <- per_domain.(worker) + 1)
                     ~offload:(fun rest ->
                       hungry ()
                       &&
                       (List.iter (fun (s, _ev, sl) -> push (s, sl)) rest;
                        true))
                     inc state0 sleep0))
          with Racy_state _ -> Error ()
        in
        match par with
        | Ok wstats ->
          ( Ok (),
            {
              sf_states = Array.fold_left ( + ) 0 per_domain;
              sf_distinct = Visited.size tbl;
              sf_hits = Visited.hits tbl;
              sf_executions = Atomic.get leaves;
              sf_steals = wstats.Wsq.steals;
              sf_per_domain = per_domain;
            } )
        | Error () ->
          (* A race exists.  Which worker saw one first is timing-dependent,
             so re-search sequentially on a fresh table: the verdict is
             already known, the rerun only makes the reported execution
             deterministic across domain counts.  (The parallel table is
             unusable after a halt — its claims no longer imply coverage.) *)
          run_seq ()
      end
    in
    emit_stateful_obs ~name:"stateful.drf0" stats;
    (result, stats)
