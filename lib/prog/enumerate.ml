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
   skipping them avoids enumerating duplicate executions.  [peek] finds
   the silent processor without stepping (and copying) the others. *)
let rec drain_silent state =
  match
    List.find_opt (fun p -> Cinterp.peek state p = None) (Cinterp.runnable state)
  with
  | None -> state
  | Some p -> drain_silent (fst (Cinterp.step state p))

(* Two pending steps of different processors commute unless they touch
   the same location and either writes or both are synchronization
   operations.  Values read and written are then unchanged by the swap,
   and so is happens-before: [so] orders only same-location sync pairs,
   so two syncs on different locations swap without changing po, so or
   hb, and a data access enters [so] with nobody.  The incremental
   checker's state is likewise unchanged: the two pushes update
   different processors' clocks and different locations' records. *)
let dependent (a : Cinterp.access) (b : Cinterp.access) =
  a.Cinterp.loc = b.Cinterp.loc
  && (a.Cinterp.writes || b.Cinterp.writes || (a.Cinterp.sync && b.Cinterp.sync))

(* Does [q]'s code still reach location [loc] from its pc?  The live
   stream holds dense indices, so compare through the location table. *)
let may_touch cp state q loc =
  let live = Prog_compile.live_locs cp q (Cinterp.pc state q) in
  let rec go i =
    i < Array.length live && (cp.Prog_compile.locs.(live.(i)) = loc || go (i + 1))
  in
  go 0

(* A persistent singleton: a processor whose pending access is on a
   location no other runnable processor can still reach.  Every
   completion of the state takes that step eventually, and it is
   independent of every step other processors take before it, so some
   completion equivalent to each one takes it first — expanding it alone
   loses no outcome and no race (Godefroid's persistent sets; the search
   space is acyclic, so the ignoring problem cannot arise).  A sleeping
   singleton is preferred, since then nothing needs expanding at all. *)
let singleton state sleep pending =
  let cp = Cinterp.compiled state in
  let private_step (p, (a : Cinterp.access)) =
    List.for_all
      (fun (q, _) -> q = p || not (may_touch cp state q a.Cinterp.loc))
      pending
  in
  let candidates = List.filter private_step pending in
  match List.find_opt (fun (p, _) -> sleep land (1 lsl p) <> 0) candidates with
  | Some _ as asleep -> asleep
  | None -> ( match candidates with c :: _ -> Some c | [] -> None)

(* Children of a drained, non-final node, with the event taken on the edge
   (consumed by the incremental DRF0 checker) and the sleep set each child
   inherits.  A sleep set is an int bitset (bit [p] = processor [p]
   asleep), so membership, filtering and intersection are single
   machine-word operations and bitsets compare in O(1) inside the visited
   table.  Sleeping processors' pending steps are already covered by a
   sibling subtree elsewhere in the search; exploring them here would only
   revisit Mazurkiewicz-equivalent interleavings.

   Sleep-set discipline (Godefroid): iterate the awake processors of the
   expanded set in ascending order; the child for processor [p] sleeps on
   every processor of [sleep ∪ done-before-p] whose pending step is
   independent of [p]'s step.  The expanded set is every runnable
   processor, or, when [persistent] and one exists, a persistent
   singleton — and nothing at all when that singleton is asleep (the
   persistent set minus the sleep set).  Pending accesses are stable
   under other processors' steps (locations are static), so sleep
   entries stay valid until the sleeper itself runs — which, while it
   sleeps, it never does. *)
let children_of ~persistent state sleep =
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
    let expanded =
      if not persistent then pending
      else
        match singleton state sleep pending with
        | Some c -> [ c ]
        | None -> pending
    in
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
    Some (expand sleep [] expanded)

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
let walk ~persistent ~max_events ~max_executions ~leaves ~on_node ~offload h
    root root_sleep =
  let rec go state sleep =
    let state = drain_silent state in
    if Cinterp.events_so_far state > max_events then raise Limit_exceeded;
    match h.claim state sleep with
    | `Skip -> ()
    | `Explore sleep -> (
      on_node ();
      match children_of ~persistent state sleep with
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
   [root].  A race ends the search with [Error]; the counters of a
   search with persistent singletons then describe a run that is about
   to be repeated without them, so they are not emitted. *)
let search ~name ~persistent ~domains ~max_events ~max_executions ~hooks cp =
  let t0 = Unix.gettimeofday () in
  (* A table only one domain touches needs no lock striping: one stripe
     grows as one region, instead of 64 that each start small.  It is
     the domain's spare, lent for the search and handed back cleared (a
     search that raises drops it). *)
  let tbl = if domains = 1 then Visited.borrow () else Visited.create () in
  let leaves = Atomic.make 0 in
  (* Per-worker slots are written only by their owner and read after the
     scheduler joins every domain, so a plain array is race-free. *)
  let per_domain = Array.make domains 0 in
  let run ~worker ~offload (root, sleep) =
    walk ~persistent ~max_events ~max_executions ~leaves
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
  if Result.is_ok result || not persistent then
    emit_obs ~name ~elapsed:(Unix.gettimeofday () -. t0) ~tbl stats;
  if domains = 1 then Visited.give_back tbl;
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
    search ~name:"stateful.outcomes" ~persistent:true ~domains ~max_events
      ~max_executions ~hooks cp
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

(* With persistent singletons the walk expands a different subset of
   the tree, and which worker of a parallel walk sees a race first is
   timing-dependent, so neither fixes which racy prefix is found.  A
   racy verdict is therefore re-searched once, sequentially, without
   persistent singletons, on a table with no claims: that walk visits
   children in tree order, so its first racy prefix — and hence the
   report — is the tree search's (a skipped subtree's states were fully
   explored, race-free, earlier in DFS order; sleep sets skip only
   interleavings equivalent to earlier ones, which contain the same
   races).  The verdict is already known; the re-search only makes the
   reported execution deterministic.  Its counters are the ones
   returned. *)
let check_drf0_stateful ?(symmetry = true) ?(max_events = 64)
    ?(max_executions = 1_000_000) ?domains program =
  let cp = compile program in
  let run ~persistent domains =
    search ~name:"stateful.drf0" ~persistent ~domains ~max_events
      ~max_executions
      ~hooks:(drf0_hooks ~symmetry ~max_events)
      cp
  in
  match run ~persistent:true (num_domains domains) with
  | Error _, _ -> run ~persistent:false 1
  | r -> r
