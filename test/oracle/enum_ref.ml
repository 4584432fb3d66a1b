(* The search oracles for {!Wo_prog.Enumerate}: the tree enumerators
   (naive and sleep-set POR), the closure and tree-incremental DRF0
   checkers, and one-domain stateful walks over the AST interpreter
   keyed on {!State_key}.  Test-only; no production code links it. *)

open Wo_prog

exception Limit_exceeded = Enumerate.Limit_exceeded

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

(* --- AST stateful walks ----------------------------------------------------- *)

(* The production DAG walks' twins over {!Interp} and {!State_key}, on
   one domain: same claim discipline, same child order, same sleep-set
   transport, so outcome sets, verdicts and racy reports must agree with
   the compiled search (state counts may differ microscopically; see
   {!Cinterp.exact_key}). *)

let stateful_stats tbl ~states ~executions =
  {
    Enumerate.sf_states = states;
    sf_distinct = Visited.size tbl;
    sf_hits = Visited.hits tbl;
    sf_executions = executions;
    sf_steals = 0;
    sf_per_domain = [| states |];
  }

let outcomes_stateful ?(strategy = Por) ?(max_events = 64)
    ?(max_executions = 1_000_000) program =
  bitset_guard program;
  let tbl = Visited.create ~shards:1 () in
  let states = ref 0 and leaves = ref 0 in
  let outcomes = ref Outcome_set.empty in
  let rec go state sleep =
    let state = drain_silent state in
    if Interp.events_so_far state > max_events then raise Limit_exceeded;
    match Visited.try_claim tbl (State_key.exact (Interp.view state)) sleep with
    | `Skip -> ()
    | `Explore sleep -> (
      incr states;
      match children_of ~strategy state sleep with
      | None ->
        incr leaves;
        if !leaves > max_executions then raise Limit_exceeded;
        outcomes := Outcome_set.add (Interp.outcome state) !outcomes
      | Some kids -> List.iter (fun (s, _ev, sl) -> go s sl) kids)
  in
  go (Interp.init program) 0;
  ( Outcome_set.elements !outcomes,
    stateful_stats tbl ~states:!states ~executions:!leaves )

let check_drf0_stateful ?(strategy = Por) ?(symmetry = true)
    ?(max_events = 64) ?(max_executions = 1_000_000) program =
  bitset_guard program;
  let tbl = Visited.create ~shards:1 () in
  let states = ref 0 and leaves = ref 0 in
  let inc = Wo_core.Drf0_inc.create ~nprocs:(Program.num_procs program) () in
  let exception Racy of Wo_core.Drf0.report in
  let rec go state sleep =
    let state = drain_silent state in
    if Interp.events_so_far state > max_events then raise Limit_exceeded;
    let key, order =
      State_key.canonical ~symmetry (Interp.view state)
        (Wo_core.Drf0_inc.summary inc)
    in
    match Visited.try_claim tbl key (Cinterp.map_sleep ~order sleep) with
    | `Skip -> ()
    | `Explore canon_sleep -> (
      incr states;
      let sleep = Cinterp.unmap_sleep ~order canon_sleep in
      match children_of ~strategy state sleep with
      | None ->
        incr leaves;
        if !leaves > max_executions then raise Limit_exceeded
      | Some kids ->
        List.iter
          (fun (state', ev, sleep') ->
            match ev with
            | None -> go state' sleep'
            | Some e -> (
              match Wo_core.Drf0_inc.push inc e with
              | Some _race ->
                let completed = complete_for_report ~max_events state' in
                raise (Racy (Wo_core.Drf0.check (Interp.execution completed)))
              | None ->
                go state' sleep';
                Wo_core.Drf0_inc.pop inc))
          kids)
  in
  let result =
    try
      go (Interp.init program) 0;
      Ok ()
    with Racy r -> Error r
  in
  (result, stateful_stats tbl ~states:!states ~executions:!leaves)

(* --- agreement -------------------------------------------------------------- *)

let outcome_sets_equal a b =
  List.length a = List.length b && List.for_all2 Outcome.equal a b

(* Race lists and execution events are pure data (ints and variants), so
   structural equality compares reports; the model component may hold
   closures, so it is deliberately left out. *)
let reports_agree (a : (unit, Wo_core.Drf0.report) result)
    (b : (unit, Wo_core.Drf0.report) result) =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error ra, Error rb ->
    ra.Wo_core.Drf0.races = rb.Wo_core.Drf0.races
    && Wo_core.Execution.events ra.Wo_core.Drf0.execution
       = Wo_core.Execution.events rb.Wo_core.Drf0.execution
  | _ -> false
