exception Limit_exceeded

type stats = { executions : int; states : int; truncated : bool }

type stateful_stats = {
  sf_states : int;
  sf_distinct : int;
  sf_hits : int;
  sf_executions : int;
  sf_steals : int;
  sf_per_domain : int array;
}

(* Advance every processor that can finish without another memory access;
   such steps commute with everything, so they are not branch points and
   skipping them avoids enumerating duplicate executions. *)
let rec drain_silent state =
  let silent =
    List.find_map
      (fun p ->
        let state', ev = Cinterp.step state p in
        match ev with None -> Some state' | Some _ -> None)
      (Cinterp.runnable state)
  in
  match silent with None -> state | Some state' -> drain_silent state'

(* Two pending steps of different processors commute unless they conflict:
   same location with a write component, or either is a synchronization
   operation (synchronization order is observable through happens-before,
   so sync steps are conservatively dependent on everything). *)
let dependent (a : Cinterp.access) (b : Cinterp.access) =
  a.Cinterp.sync || b.Cinterp.sync
  || (a.Cinterp.loc = b.Cinterp.loc && (a.Cinterp.writes || b.Cinterp.writes))

(* Children of a drained, non-final node, with the event taken on the edge
   (consumed by the incremental DRF0 checker) and the sleep set each child
   inherits.  A sleep set is an int bitset (bit [p] = processor [p]
   asleep), so membership, filtering and intersection are single
   machine-word operations and bitsets compare in O(1) inside the visited
   table.  Sleeping processors' pending steps are already covered by a
   sibling subtree elsewhere in the search; exploring them here would only
   revisit Mazurkiewicz-equivalent interleavings.

   Sleep-set discipline (Godefroid): iterate awake processors in ascending
   order; the child for processor [p] sleeps on every processor of
   [sleep ∪ done-before-p] whose pending step is independent of [p]'s step.
   Pending accesses are stable under other processors' steps (locations are
   static), so sleep entries stay valid until the sleeper itself runs —
   which, while it sleeps, it never does. *)
let children_of state sleep =
  match Cinterp.runnable state with
  | [] -> None (* complete execution *)
  | procs ->
    (* After [drain_silent] every runnable processor has a pending memory
       operation, so [peek] cannot return [None]. *)
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
                if sleep_now land (1 lsl q) <> 0 && not (dependent ap aq) then
                  m lor (1 lsl q)
                else m)
              0 pending
          in
          let state', ev = Cinterp.step state p in
          expand
            (sleep_now lor (1 lsl p))
            ((state', ev, child_sleep) :: acc)
            rest
    in
    Some (expand sleep [] pending)

(* A program the compiler cannot pack (more processors than sleep-set
   bits, or locations/registers beyond 16-bit indices) is beyond the
   search's bounds. *)
let compile program =
  match Prog_compile.compile program with
  | Some cp -> cp
  | None -> raise Limit_exceeded

let num_domains = function
  | Some d -> max 1 d
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* --- the DAG walk --------------------------------------------------------- *)

(* A tree search forgets where it has been: a state reached by two
   commutation-inequivalent paths is expanded twice, once per path.  The
   walk keys a visited table ({!Visited}) on packed encodings of the
   interpreter state, turning the search tree into a DAG — convergent
   schedules (and, for the DRF0 quantifier, whole symmetry orbits) are
   expanded once.  Soundness of caching under sleep sets follows
   Godefroid's discipline: a revisit is pruned only when the cached
   claim's sleep set is a subset of ours (the cached exploration ran with
   at most as much pruning); otherwise the entry is widened to the
   intersection and re-explored.

   The two jobs differ in the key a state is claimed under and in what
   rides the edges; [hooks] carries both.  [claim] keys the state and
   consults the table, answering in concrete sleep-set coordinates;
   [enter]/[leave] bracket the subtree below an edge's event; [leaf]
   sees every complete execution. *)
type hooks = {
  claim : Cinterp.state -> int -> [ `Skip | `Explore of int ];
  enter : Wo_core.Event.t -> Cinterp.state -> unit;
  leave : unit -> unit;
  leaf : Cinterp.state -> unit;
}

(* One DAG walk from [root]; the hooks must agree with the path to [root].
   [offload] may hand sibling subtrees to the scheduler (returning true)
   instead of having them explored inline. *)
let walk ~max_events ~max_executions ~leaves ~on_node ~offload h root
    root_sleep =
  let rec go state sleep =
    let state = drain_silent state in
    if Cinterp.events_so_far state > max_events then raise Limit_exceeded;
    match h.claim state sleep with
    | `Skip -> ()
    | `Explore sleep -> (
      on_node ();
      match children_of state sleep with
      | None ->
        if Atomic.fetch_and_add leaves 1 >= max_executions then
          raise Limit_exceeded;
        h.leaf state
      | Some kids -> (
        let explore (state', ev, sleep') =
          match ev with
          | None -> go state' sleep'
          | Some e ->
            h.enter e state';
            go state' sleep';
            h.leave ()
        in
        match kids with
        | first :: (_ :: _ as rest) when offload rest -> explore first
        | kids -> List.iter explore kids))
  in
  go root root_sleep

(* Internal signal: a race was found; carries the closure-checked report of
   the completed racy execution. *)
exception Racy of Wo_core.Drf0.report

let emit_obs ~name ~elapsed ~tbl (s : stateful_stats) =
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
    Array.iteri (fun i v -> c i (name ^ ".domain_expanded") v) s.sf_per_domain;
    (* throughput plus the off-heap table's footprint and probe-length
       histogram (one counter per log2 bucket, bucket index as the track) *)
    c 0 "compiled.states_per_sec"
      (if elapsed > 0. then int_of_float (float_of_int s.sf_states /. elapsed)
       else 0);
    c 0 "visited.arena_bytes" (Visited.arena_bytes tbl);
    Array.iteri (fun i v -> c i "visited.probe_len" v) (Visited.probe_hist tbl)
  end

(* Run one search: on the calling domain when [domains = 1], otherwise
   under the work-stealing scheduler with a shared striped table.
   [hooks ~worker tbl root] builds a walk's hooks for a task rooted at
   [root].  A race ends the search with [Error]; a parallel search's
   counters then describe an abandoned run, so they are not emitted. *)
let search ~name ~domains ~max_events ~max_executions ~hooks cp =
  let t0 = Unix.gettimeofday () in
  (* A table only one domain touches needs no lock striping: one stripe
     grows as one region, instead of 64 that each start small. *)
  let tbl =
    if domains = 1 then Visited.create ~shards:1 () else Visited.create ()
  in
  let leaves = Atomic.make 0 in
  (* Per-worker slots are written only by their owner and read after the
     scheduler joins every domain, so a plain array is race-free. *)
  let per_domain = Array.make domains 0 in
  let run ~worker ~offload (root, sleep) =
    walk ~max_events ~max_executions ~leaves
      ~on_node:(fun () -> per_domain.(worker) <- per_domain.(worker) + 1)
      ~offload (hooks ~worker tbl root) root sleep
  in
  let root = (Cinterp.init cp, 0) in
  let steals = ref 0 in
  let result =
    try
      if domains = 1 then run ~worker:0 ~offload:(fun _ -> false) root
      else
        steals :=
          (Wsq.run ~domains ~roots:[ root ]
             (fun ~worker ~push ~hungry ~halt:_ task ->
               run ~worker
                 ~offload:(fun rest ->
                   hungry ()
                   &&
                   (List.iter (fun (s, _ev, sl) -> push (s, sl)) rest;
                    true))
                 task))
            .Wsq.steals;
      Ok ()
    with Racy r -> Error r
  in
  let stats =
    {
      sf_states = Array.fold_left ( + ) 0 per_domain;
      sf_distinct = Visited.size tbl;
      sf_hits = Visited.hits tbl;
      sf_executions = Atomic.get leaves;
      sf_steals = !steals;
      sf_per_domain = per_domain;
    }
  in
  if domains = 1 || Result.is_ok result then
    emit_obs ~name ~elapsed:(Unix.gettimeofday () -. t0) ~tbl stats;
  (result, stats)

(* --- outcome collection --------------------------------------------------- *)

module Outcome_set = Set.Make (Outcome)

let outcomes_stateful ?(max_events = 64) ?(max_executions = 1_000_000)
    ?domains program =
  let cp = compile program in
  let domains = num_domains domains in
  let outs = Array.make domains Outcome_set.empty in
  (* Outcomes name concrete processors and locations, so the key is the
     exact snapshot — no symmetry quotient, nothing on the edges.  A
     skipped state's subtree (restricted by a sleep subset of ours) has
     already fed every outcome it can reach into some worker's set. *)
  let hooks ~worker tbl _root =
    {
      claim =
        (fun state sleep ->
          Visited.try_claim tbl (Cinterp.exact_key state) sleep);
      enter = (fun _ _ -> ());
      leave = ignore;
      leaf =
        (fun state ->
          outs.(worker) <-
            Outcome_set.add (Cinterp.outcome state) outs.(worker));
    }
  in
  let _, stats =
    search ~name:"stateful.outcomes" ~domains ~max_events ~max_executions
      ~hooks cp
  in
  ( Outcome_set.elements
      (Array.fold_left Outcome_set.union Outcome_set.empty outs),
    stats )

let outcomes_with_stats ?max_events ?max_executions program =
  let outs, s =
    outcomes_stateful ?max_events ?max_executions ~domains:1 program
  in
  ( outs,
    { executions = s.sf_executions; states = s.sf_states; truncated = false } )

(* --- DRF0 quantification -------------------------------------------------- *)

(* Complete a racy prefix into a full execution for the report.  The
   round-robin rotation dodges the trivial livelock a fixed-processor
   completion would hit on spin loops; the step budget is a backstop — a
   truncated completion still contains the racy prefix, which is all the
   report needs. *)
let complete_for_report ~max_events state =
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

let racy ~max_events state =
  let completed = complete_for_report ~max_events state in
  raise (Racy (Wo_core.Drf0.check (Cinterp.execution completed)))

(* Path-incremental checking: a vector-clock checker rides the walk,
   pushing each edge's event and popping on backtrack.  The first racing
   event condemns every completion of its prefix (happens-before between
   two events depends only on the prefix up to the later one), so the
   search stops on the spot and no per-leaf closure is built.

   A task handed to the scheduler carries only the interpreter state; its
   checker is rebuilt by replaying the path's events (none for the root).
   The replay cannot race for tasks spawned by a walk — every edge was
   checked before its subtree was offloaded — but a defensive check costs
   nothing.

   The DRF0 verdict is isomorphism-invariant, so the key quotients by
   processor symmetry and location renaming, read in place from the
   checker; the arrangement [order] transports the sleep bitset into
   canonical coordinates and back.  Key working memory is per walk, so
   per stolen task. *)
let drf0_hooks ~symmetry ~max_events ~worker:_ tbl root =
  let cp = Cinterp.compiled root in
  let inc = Wo_core.Drf0_inc.create ~nprocs:cp.Prog_compile.nprocs () in
  let enter e state =
    match Wo_core.Drf0_inc.push inc e with
    | None -> ()
    | Some _race -> racy ~max_events state
  in
  List.iter
    (fun e -> enter e root)
    (Wo_core.Execution.events (Cinterp.execution root));
  let workspace = Cinterp.key_workspace cp in
  {
    claim =
      (fun state sleep ->
        let key, order = Cinterp.canonical_key ~symmetry workspace state inc in
        match Visited.try_claim tbl key (Cinterp.map_sleep ~order sleep) with
        | `Skip -> `Skip
        | `Explore canon -> `Explore (Cinterp.unmap_sleep ~order canon));
    enter;
    leave = (fun () -> Wo_core.Drf0_inc.pop inc);
    leaf = ignore;
  }

(* Sequential walks visit children in tree order, so the first racy prefix
   found — and hence the report — is the tree search's (a skipped
   subtree's states were fully explored, race-free, earlier in DFS
   order).  Which parallel worker sees a race first is timing-dependent,
   so a parallel race is re-searched sequentially on a fresh table: the
   verdict is already known, the rerun only makes the reported execution
   deterministic across domain counts.  (The parallel table is unusable
   after a halt — its claims no longer imply coverage.) *)
let check_drf0_stateful ?(symmetry = true) ?(max_events = 64)
    ?(max_executions = 1_000_000) ?domains program =
  let cp = compile program in
  let domains = num_domains domains in
  let run domains =
    search ~name:"stateful.drf0" ~domains ~max_events ~max_executions
      ~hooks:(drf0_hooks ~symmetry ~max_events)
      cp
  in
  match run domains with Error _, _ when domains > 1 -> run 1 | r -> r
