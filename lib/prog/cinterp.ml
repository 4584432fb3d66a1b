(* Compiled interpreter — Interp's semantics over flat int arrays.

   A state is (pcs, regs, mem, seqs) plus the event log; step/peek
   mirror Interp.step/peek exactly (same events, same runnable
   discipline, same local-step folding).  Persistence is by
   copy-on-write: [advance] copies the register file only if a local op
   writes, memory is copied only by memory-writing steps, so branching
   costs a handful of small int-array copies. *)

module P = Prog_compile

let stride = P.op_stride

let max_local_steps = 100_000

type state = {
  prog : P.t;
  pcs : int array;  (* per proc: offset into [prog.code.(p)] *)
  regs : int array;  (* flat register file, default 0 *)
  mem : int array;  (* per location index *)
  seqs : int array;
  next_event_id : int;
  events_rev : Wo_core.Event.t list;
}

let init prog =
  {
    prog;
    pcs = Array.make prog.P.nprocs 0;
    regs = Array.make (max prog.P.nregs 1) 0;
    mem = Array.copy prog.P.init_mem;
    seqs = Array.make prog.P.nprocs 0;
    next_event_id = 0;
    events_rev = [];
  }

let compiled st = st.prog

(* --- expression evaluation -------------------------------------------------- *)

let eval_postfix t regs e =
  let off = t.P.e_arg.(e) and len = t.P.e_len.(e) in
  let stack = Array.make t.P.max_stack 0 in
  let sp = ref 0 in
  for i = 0 to len - 1 do
    let tag = t.P.epool.(off + (2 * i)) in
    let arg = t.P.epool.(off + (2 * i) + 1) in
    if tag = P.p_const then begin
      stack.(!sp) <- arg;
      incr sp
    end
    else if tag = P.p_reg then begin
      stack.(!sp) <- regs.(arg);
      incr sp
    end
    else begin
      let b = stack.(!sp - 1) and a = stack.(!sp - 2) in
      sp := !sp - 2;
      let v =
        if tag = P.p_add then a + b
        else if tag = P.p_sub then a - b
        else if tag = P.p_mul then a * b
        else if tag = P.p_eq then if a = b then 1 else 0
        else if tag = P.p_ne then if a <> b then 1 else 0
        else if tag = P.p_lt then if a < b then 1 else 0
        else if a <= b then 1
        else 0
      in
      stack.(!sp) <- v;
      incr sp
    end
  done;
  stack.(0)

let eval t regs e =
  let k = t.P.e_kind.(e) in
  if k = P.e_const then t.P.e_arg.(e)
  else if k = P.e_reg then regs.(t.P.e_arg.(e))
  else eval_postfix t regs e

(* --- local control flow ----------------------------------------------------- *)

(* Unfold local ops from the processor's pc until a memory op or the end
   of the code, mirroring Interp.advance.  The returned register file is
   the input one if no local op wrote (physically — callers test with
   [==] before mutating further). *)
let advance st proc =
  let t = st.prog in
  let code = t.P.code.(proc) in
  let len = Array.length code in
  let regs = ref st.regs in
  let owned = ref false in
  let wr r v =
    if not !owned then begin
      regs := Array.copy !regs;
      owned := true
    end;
    !regs.(r) <- v
  in
  let rec go pc budget =
    if budget = 0 then raise (Interp.Local_divergence proc);
    if pc >= len then `Finished !regs
    else begin
      let o = code.(pc) in
      if o <= P.o_faa then `Memory (!regs, pc)
      else if o = P.o_assign then begin
        wr code.(pc + 1) (eval t !regs code.(pc + 2));
        go (pc + stride) (budget - 1)
      end
      else if o = P.o_jmp then go code.(pc + 1) (budget - 1)
      else if o = P.o_jif then
        if eval t !regs code.(pc + 1) <> 0 then go (pc + stride) (budget - 1)
        else go code.(pc + 2) (budget - 1)
      else (* nop / fence *) go (pc + stride) (budget - 1)
    end
  in
  go st.pcs.(proc) max_local_steps

(* --- stepping --------------------------------------------------------------- *)

let runnable st =
  let rec go p acc =
    if p < 0 then acc
    else
      go (p - 1)
        (if st.pcs.(p) < Array.length st.prog.P.code.(p) then p :: acc else acc)
  in
  go (st.prog.P.nprocs - 1) []

let finished st =
  let rec go p =
    p < 0 || (st.pcs.(p) >= Array.length st.prog.P.code.(p) && go (p - 1))
  in
  go (st.prog.P.nprocs - 1)

let peek st proc =
  match advance st proc with
  | `Finished _ -> None
  | `Memory (_, pc) ->
    let t = st.prog in
    let code = t.P.code.(proc) in
    let o = code.(pc) in
    let li = if o = P.o_write || o = P.o_sync_write then code.(pc + 1) else code.(pc + 2) in
    Some
      {
        Interp.loc = t.P.locs.(li);
        writes = o <> P.o_read && o <> P.o_sync_read;
        sync = o >= P.o_sync_read;
      }

let step st proc =
  let t = st.prog in
  let code = t.P.code.(proc) in
  let len = Array.length code in
  if st.pcs.(proc) >= len then
    invalid_arg "Cinterp.step: processor already finished";
  match advance st proc with
  | `Finished regs ->
    let pcs = Array.copy st.pcs in
    pcs.(proc) <- len;
    ({ st with pcs; regs }, None)
  | `Memory (regs0, pc) ->
    let seq = st.seqs.(proc) in
    let id = st.next_event_id in
    let mk kind loc ?read_value ?written_value () =
      Wo_core.Event.make ~id ~proc ~seq ~kind ~loc ?read_value ?written_value ()
    in
    (* [regs0] is either a private copy made by [advance] or still the
       parent's array; own it before the first register write. *)
    let own regs = if regs == st.regs then Array.copy regs else regs in
    let o = code.(pc) in
    let ev, regs, mem =
      if o = P.o_read || o = P.o_sync_read then begin
        let r = code.(pc + 1) and li = code.(pc + 2) in
        let v = st.mem.(li) in
        let regs = own regs0 in
        regs.(r) <- v;
        let kind =
          if o = P.o_read then Wo_core.Event.Data_read
          else Wo_core.Event.Sync_read
        in
        (mk kind t.P.locs.(li) ~read_value:v (), regs, st.mem)
      end
      else if o = P.o_write || o = P.o_sync_write then begin
        let li = code.(pc + 1) and e = code.(pc + 2) in
        let v = eval t regs0 e in
        let mem = Array.copy st.mem in
        mem.(li) <- v;
        let kind =
          if o = P.o_write then Wo_core.Event.Data_write
          else Wo_core.Event.Sync_write
        in
        (mk kind t.P.locs.(li) ~written_value:v (), regs0, mem)
      end
      else if o = P.o_tas then begin
        let r = code.(pc + 1) and li = code.(pc + 2) in
        let old = st.mem.(li) in
        let regs = own regs0 in
        regs.(r) <- old;
        let mem = Array.copy st.mem in
        mem.(li) <- 1;
        ( mk Wo_core.Event.Sync_rmw t.P.locs.(li) ~read_value:old
            ~written_value:1 (),
          regs,
          mem )
      end
      else begin
        (* o_faa *)
        let r = code.(pc + 1) and li = code.(pc + 2) and e = code.(pc + 3) in
        let old = st.mem.(li) in
        let v = old + eval t regs0 e in
        let regs = own regs0 in
        regs.(r) <- old;
        let mem = Array.copy st.mem in
        mem.(li) <- v;
        ( mk Wo_core.Event.Sync_rmw t.P.locs.(li) ~read_value:old
            ~written_value:v (),
          regs,
          mem )
      end
    in
    let pcs = Array.copy st.pcs in
    pcs.(proc) <- pc + stride;
    let seqs = Array.copy st.seqs in
    seqs.(proc) <- seq + 1;
    ( {
        st with
        pcs;
        regs;
        mem;
        seqs;
        next_event_id = id + 1;
        events_rev = ev :: st.events_rev;
      },
      Some ev )

(* --- observation ------------------------------------------------------------ *)

let memory st =
  Array.to_list (Array.mapi (fun i l -> (l, st.mem.(i))) st.prog.P.locs)

let events_so_far st = st.next_event_id

let outcome st =
  let registers =
    Array.to_list st.prog.P.obs_regs
    |> List.map (fun (p, r, flat) -> (p, r, st.regs.(flat)))
  in
  Outcome.make ~registers ~memory:(memory st)

let execution st = Wo_core.Execution.of_ordered_events (List.rev st.events_rev)

(* --- packed exact keys ------------------------------------------------------ *)

(* Zigzagged LEB128 varints; self-delimiting, and the per-program field
   counts (nprocs, nregs, nlocs) are fixed, so the concatenation is
   injective on states of one compiled program. *)
let put b pos n =
  let z = if n >= 0 then n lsl 1 else lnot (n lsl 1) in
  let rec go z pos =
    if z < 0x80 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr z);
      pos + 1
    end
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (z land 0x7f)));
      go (z lsr 7) (pos + 1)
    end
  in
  go z pos

let put_all b pos a =
  let pos = ref pos in
  for i = 0 to Array.length a - 1 do
    pos := put b !pos a.(i)
  done;
  !pos

let exact_key st =
  let t = st.prog in
  let worst =
    10 * (1 + t.P.nprocs + Array.length st.regs + Array.length st.mem)
  in
  let b = Bytes.create worst in
  let pos = put b 0 st.next_event_id in
  let pos = put_all b pos st.pcs in
  let pos = put_all b pos st.regs in
  let pos = put_all b pos st.mem in
  Bytes.sub_string b 0 pos

(* --- canonical DRF0 keys ---------------------------------------------------- *)

module Inc = Wo_core.Drf0_inc

(* Rank compression, as State_key.emit_ranks: order-preserving
   per-coordinate renumbering of the summary values. *)
let emit_ranks buf vals =
  let distinct = List.sort_uniq Int.compare vals in
  let rank v =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = v then i else go (i + 1) rest
    in
    go 0 distinct
  in
  List.iter (fun v -> P.emit_varint buf (rank v)) vals

(* Runtime signature of one thread: static symmetry class + pc +
   register values.  Two threads with equal signatures have the same
   remaining compiled code up to a private location renaming (class
   fixes the whole code array up to renaming; pc fixes the suffix) and
   the same register file, so permuting them maps the state to an
   isomorphic one — the compiled analogue of State_key's
   thread_signature.  (Coarser in one spot: the AST signature
   distinguishes an unbound register from one bound to 0; compiled
   execution cannot, so merging them is sound here.) *)
let signature st p =
  let t = st.prog in
  ( t.P.classes.(p),
    st.pcs.(p),
    Array.sub st.regs t.P.reg_base.(p) (Array.length t.P.reg_ids.(p)) )

let encode_arrangement st (sm : Inc.summary) order =
  let t = st.prog in
  let nprocs = t.P.nprocs in
  let buf = Buffer.create 128 in
  P.emit_varint buf st.next_event_id;
  Array.iter
    (fun p ->
      P.emit_varint buf t.P.classes.(p);
      P.emit_varint buf st.pcs.(p);
      let base = t.P.reg_base.(p) in
      for i = 0 to Array.length t.P.reg_ids.(p) - 1 do
        P.emit_varint buf st.regs.(base + i)
      done)
    order;
  (* Live locations (reachable from some thread's pc), renamed by first
     occurrence scanning threads in arrangement order; dead locations
     cannot be accessed again, so their values and happens-before
     metadata are dropped.  Same-class threads have position-wise
     corresponding live streams (same CFG, operands related by the class
     renaming), so the composite renaming is arrangement-invariant. *)
  let nlocs = Array.length t.P.locs in
  let rename = Array.make nlocs (-1) in
  let live_rev = ref [] in
  let next = ref 0 in
  Array.iter
    (fun p ->
      let ll = t.P.live_locs.(p).(st.pcs.(p) / stride) in
      Array.iter
        (fun li ->
          if rename.(li) < 0 then begin
            rename.(li) <- !next;
            incr next;
            live_rev := li :: !live_rev
          end)
        ll)
    order;
  let live = List.rev !live_rev in
  Buffer.add_char buf 'M';
  List.iter (fun li -> P.emit_varint buf st.mem.(li)) live;
  Buffer.add_char buf 'H';
  let loc_summaries =
    List.map
      (fun li ->
        List.find_opt
          (fun (l : Inc.loc_summary) -> l.Inc.ls_loc = t.P.locs.(li))
          sm.Inc.sm_locs)
      live
  in
  for q' = 0 to nprocs - 1 do
    let q = order.(q') in
    let clock_vals =
      List.init nprocs (fun p' -> sm.Inc.sm_clocks.(order.(p')).(q))
    in
    let loc_vals =
      List.concat_map
        (function
          | Some (l : Inc.loc_summary) ->
            [ l.Inc.ls_last_write.(q); l.Inc.ls_last_read.(q); l.Inc.ls_sync.(q) ]
          | None -> [ -1; -1; 0 ])
        loc_summaries
    in
    emit_ranks buf (clock_vals @ loc_vals)
  done;
  Buffer.contents buf

(* Arrangements permuting threads within equal-signature groups, capped
   exactly like State_key.arrangements. *)
let max_arrangements = 24

let arrangements st =
  let nprocs = st.prog.P.nprocs in
  let classes =
    List.init nprocs (fun p -> (signature st p, p))
    |> List.sort compare
    |> List.fold_left
         (fun acc (sg, p) ->
           match acc with
           | (sg', ps) :: rest when sg' = sg -> (sg', p :: ps) :: rest
           | _ -> (sg, [ p ]) :: acc)
         []
    |> List.rev_map (fun (_, ps) -> List.rev ps)
  in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l
  in
  let count =
    List.fold_left
      (fun acc c ->
        let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
        acc * fact (List.length c))
      1 classes
  in
  if count > max_arrangements then [ Array.init nprocs (fun p -> p) ]
  else
    List.fold_left
      (fun acc cls ->
        List.concat_map
          (fun prefix -> List.map (fun perm -> prefix @ perm) (perms cls))
          acc)
      [ [] ] classes
    |> List.map Array.of_list

let canonical_key ?(symmetry = true) st sm =
  let identity = Array.init st.prog.P.nprocs (fun p -> p) in
  if not symmetry then (encode_arrangement st sm identity, identity)
  else
    match arrangements st with
    | [ order ] -> (encode_arrangement st sm order, order)
    | orders ->
      List.fold_left
        (fun (best_key, best_order) order ->
          let key = encode_arrangement st sm order in
          if String.compare key best_key < 0 then (key, order)
          else (best_key, best_order))
        (encode_arrangement st sm (List.hd orders), List.hd orders)
        (List.tl orders)
