(* The list-based model-aware enumerator, kept as the test oracle for
   the compiled explorer ({!Wo_prog.Relaxed}): no production code links
   it.  Identity tests require sorted-set equality between the two.

   For a loop-free program and a hardware ordering model
   ({!Wo_core.Sync_model.hardware}) this enumerates every outcome the
   model allows, by exhaustive interleaving of an abstract operational
   machine: per-processor store buffers are explicit state, and draining
   one buffered write to memory is a scheduling step like any other.
   The simulated machines ({!Wo_machines.Ordering}) implement the same
   models with real timing; their reachable outcomes are a subset of
   what this enumerator produces, which is exactly the compliance
   contract `wo difftest` checks for racy programs.

   The abstract machine:
   - a data write deposits into the processor's buffer (when the model
     buffers at all); a drain step applies the oldest eligible entry to
     memory — the FIFO head under TSO, the oldest entry of any one
     location when W->W is relaxed (PSO/RA);
   - a data read returns the youngest of the processor's own pending
     writes to the location (store-to-load forwarding) or, failing
     that, current memory — overtaking pending writes to other
     locations (W->R);
   - synchronization requires an empty buffer (drain-then-issue) and
     acts directly on memory; under [Acquire_no_drain] (RA) read-only
     synchronization skips the drain requirement, like a data read;
   - local computation runs eagerly: it commutes with every other
     processor's steps, so executing it immediately prunes the
     interleaving tree without losing outcomes. *)

module SM = Wo_core.Sync_model
open Wo_prog

exception Too_many_states of int

(* Sorted-assoc updates keep states structurally canonical, so the
   visited table can use polymorphic equality. *)
let rec assoc_set k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | (k', v') :: rest when k' > k -> (k, v) :: (k', v') :: rest
  | kv :: rest -> kv :: assoc_set k v rest

type pstate = {
  code : Instr.t list;
  regs : (Instr.reg * Wo_core.Event.value) list; (* sorted *)
  buf : (Wo_core.Event.loc * Wo_core.Event.value) list; (* oldest first *)
}

type state = {
  procs : pstate list;
  mem : (Wo_core.Event.loc * Wo_core.Event.value) list; (* sorted *)
}

let reg_value ps r = try List.assoc r ps.regs with Not_found -> 0
let eval ps e = Instr.eval_expr (reg_value ps) e
let cond ps c = Instr.eval_cond (reg_value ps) c

let mem_value program mem loc =
  try List.assoc loc mem with Not_found -> Program.initial_value program loc

(* The youngest pending write to [loc], if any. *)
let forwarded ps loc =
  List.fold_left
    (fun acc (l, v) -> if l = loc then Some v else acc)
    None ps.buf

(* Run a processor's local prefix (assignments, control flow, Nop) to
   the next memory operation.  Terminates on loop-free programs. *)
let rec settle_local ps =
  match ps.code with
  | Instr.Assign (r, e) :: rest ->
    settle_local { ps with code = rest; regs = assoc_set r (eval ps e) ps.regs }
  | Instr.Nop :: rest -> settle_local { ps with code = rest }
  | Instr.If (c, a, b) :: rest ->
    settle_local { ps with code = (if cond ps c then a else b) @ rest }
  | Instr.While (c, body) :: rest ->
    if cond ps c then settle_local { ps with code = body @ (ps.code : Instr.t list) }
    else settle_local { ps with code = rest }
  | _ -> ps

(* Entries eligible to drain next: position of the FIFO head, or of the
   oldest entry per location when W->W is relaxed. *)
let drainable hw ps =
  match ps.buf with
  | [] -> []
  | (l0, _) :: _ when not (SM.relaxes hw SM.W_to_w) -> [ (0, l0) ]
  | buf ->
    let seen = ref [] in
    List.filteri
      (fun _ (l, _) ->
        if List.mem l !seen then false
        else begin
          seen := l :: !seen;
          true
        end)
      buf
    |> fun firsts ->
    List.map
      (fun (l, _) ->
        let rec pos i = function
          | (l', _) :: _ when l' = l -> i
          | _ :: rest -> pos (i + 1) rest
          | [] -> assert false
        in
        (pos 0 buf, l))
      firsts

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let outcomes ?(max_states = 2_000_000) (hw : SM.hardware)
    (program : Program.t) : Outcome.t list =
  if Program.has_loops program then
    invalid_arg "Relaxed.outcomes: program has loops";
  let buffers = hw.SM.relaxations <> [] in
  let num_procs = Program.num_procs program in
  let thread_regs =
    Array.map (fun code -> Instr.regs code) program.Program.threads
  in
  let observable p r =
    match program.Program.observable with
    | None -> true
    | Some l -> List.mem (p, r) l
  in
  let initial =
    {
      procs =
        Array.to_list
          (Array.map
             (fun code -> settle_local { code; regs = []; buf = [] })
             program.Program.threads);
      mem = [];
    }
  in
  let visited : (state, unit) Hashtbl.t = Hashtbl.create 4096 in
  let results : (Outcome.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let set_proc st p ps =
    { st with procs = List.mapi (fun i q -> if i = p then ps else q) st.procs }
  in
  let finalize st =
    let registers =
      List.concat
        (List.mapi
           (fun p ps ->
             List.filter_map
               (fun r ->
                 if observable p r then Some (p, r, reg_value ps r) else None)
               thread_regs.(p))
           st.procs)
    in
    let memory =
      List.map (fun loc -> (loc, mem_value program st.mem loc)) (Program.locs program)
    in
    let o = Outcome.make ~registers ~memory in
    if not (Hashtbl.mem results o) then Hashtbl.replace results o ()
  in
  let rec explore st =
    if Hashtbl.mem visited st then ()
    else begin
      Hashtbl.replace visited st ();
      if Hashtbl.length visited > max_states then
        raise (Too_many_states max_states);
      let stepped = ref false in
      List.iteri
        (fun p ps ->
          (* drain one eligible buffered write *)
          List.iter
            (fun (n, loc) ->
              stepped := true;
              let v = snd (List.nth ps.buf n) in
              explore
                (set_proc
                   { st with mem = assoc_set loc v st.mem }
                   p
                   { ps with buf = remove_nth n ps.buf }))
            (drainable hw ps);
          (* execute the next memory operation *)
          match ps.code with
          | [] -> ()
          | instr :: rest ->
            let continue ?(mem = st.mem) ps' =
              stepped := true;
              explore (set_proc { st with mem } p (settle_local ps'))
            in
            let read_value loc =
              match (hw.SM.forwarding, forwarded ps loc) with
              | true, Some v -> v
              | _ -> mem_value program st.mem loc
            in
            let quiet = ps.buf = [] in
            (match instr with
            | Instr.Read (r, loc) ->
              if hw.SM.forwarding || forwarded ps loc = None then
                continue
                  { ps with code = rest; regs = assoc_set r (read_value loc) ps.regs }
            | Instr.Write (loc, e) ->
              let v = eval ps e in
              if buffers then
                continue { ps with code = rest; buf = ps.buf @ [ (loc, v) ] }
              else continue ~mem:(assoc_set loc v st.mem) { ps with code = rest }
            | Instr.Sync_read (r, loc) ->
              if quiet || SM.relaxes hw SM.Acquire_no_drain then
                continue
                  { ps with code = rest; regs = assoc_set r (read_value loc) ps.regs }
            | Instr.Sync_write (loc, e) ->
              if quiet then
                continue
                  ~mem:(assoc_set loc (eval ps e) st.mem)
                  { ps with code = rest }
            | Instr.Test_and_set (r, loc) ->
              if quiet then
                let old = mem_value program st.mem loc in
                continue
                  ~mem:(assoc_set loc 1 st.mem)
                  { ps with code = rest; regs = assoc_set r old ps.regs }
            | Instr.Fetch_and_add (r, loc, e) ->
              if quiet then
                let old = mem_value program st.mem loc in
                continue
                  ~mem:(assoc_set loc (old + eval ps e) st.mem)
                  { ps with code = rest; regs = assoc_set r old ps.regs }
            | Instr.Fence -> if quiet then continue { ps with code = rest }
            | Instr.Assign _ | Instr.Nop | Instr.If _ | Instr.While _ ->
              (* settle_local leaves only memory operations at the head *)
              assert false))
        st.procs;
      if not !stepped then begin
        assert (List.for_all (fun ps -> ps.code = [] && ps.buf = []) st.procs);
        finalize st
      end
    end
  in
  ignore num_procs;
  explore initial;
  Hashtbl.fold (fun o () acc -> o :: acc) results []
  |> List.sort Outcome.compare
