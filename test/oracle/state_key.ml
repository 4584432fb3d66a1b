(* Canonical encodings of enumeration states.

   The AST stateful walks (Enum_ref.*_stateful) replace the search
   *tree* with a DAG: a visited table keyed by a compact encoding of the
   interpreter state, so a state reached by a second
   commutation-inequivalent path is expanded exactly once.  Two flavours:

   - [exact]: a byte-for-byte snapshot of everything the future depends
     on (register files, remaining code, memory, event count).  Used for
     outcome collection, where processor and location identities are
     observable (outcomes name them), so no renaming is allowed.

   - [canonical]: used for the DRF0 quantifier, whose verdict is
     invariant under isomorphism — any bijective renaming of processor
     and location ids.  Locations are renamed by first occurrence in the
     encoding stream, symmetric processors (equal thread-local
     signatures) are permuted to a canonical arrangement, and the
     incremental checker's vector-clock summary is rank-compressed per
     coordinate.  Dekker-style mirrored programs collapse onto one
     representative per orbit.

   Soundness of the rank compression: every future operation of the
   incremental checker compares summary values only *within* one
   processor coordinate (joins are pointwise max, a race test compares a
   last-access epoch against one clock component), and future epochs are
   assigned strictly above every tracked value of their coordinate.  So
   any order-preserving per-coordinate renumbering leaves the set of
   reachable races unchanged, and states with equal rank patterns have
   isomorphic race futures.  (DESIGN.md section 5 spells the argument
   out.) *)

open Wo_prog
module Inc = Wo_core.Drf0_inc

(* Permuting more symmetric threads than this would cost more encodings
   per state than the orbit collapse saves; fall back to the identity
   arrangement (sound — only reduction is lost). *)
let max_arrangements = 24

let emit_int buf n =
  (* ints here are small (ids, values, ranks); a compact tagged encoding
     keeps keys short while staying injective *)
  if n >= 0 && n < 0x7f then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf '\x7f';
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf ';'
  end

let emit_tag buf c = Buffer.add_char buf c

(* --- structural instruction encoding with location renaming ---------------- *)

type renamer = { table : (int, int) Hashtbl.t; mutable order : int list }

let fresh_renamer () = { table = Hashtbl.create 8; order = [] }

let rename rn loc =
  match Hashtbl.find_opt rn.table loc with
  | Some id -> id
  | None ->
    let id = Hashtbl.length rn.table in
    Hashtbl.add rn.table loc id;
    rn.order <- loc :: rn.order;
    id

let renamed_locs rn = List.rev rn.order

let rec emit_expr buf (e : Instr.expr) =
  match e with
  | Instr.Const n ->
    emit_tag buf 'c';
    emit_int buf n
  | Instr.Reg r ->
    emit_tag buf 'r';
    emit_int buf r
  | Instr.Add (a, b) ->
    emit_tag buf '+';
    emit_expr buf a;
    emit_expr buf b
  | Instr.Sub (a, b) ->
    emit_tag buf '-';
    emit_expr buf a;
    emit_expr buf b
  | Instr.Mul (a, b) ->
    emit_tag buf '*';
    emit_expr buf a;
    emit_expr buf b

let emit_cond buf (c : Instr.cond) =
  let two tag a b =
    emit_tag buf tag;
    emit_expr buf a;
    emit_expr buf b
  in
  match c with
  | Instr.Eq (a, b) -> two '=' a b
  | Instr.Ne (a, b) -> two '!' a b
  | Instr.Lt (a, b) -> two '<' a b
  | Instr.Le (a, b) -> two 'l' a b

let rec emit_instr buf rn (i : Instr.t) =
  match i with
  | Instr.Read (r, loc) ->
    emit_tag buf 'R';
    emit_int buf r;
    emit_int buf (rename rn loc)
  | Instr.Write (loc, e) ->
    emit_tag buf 'W';
    emit_int buf (rename rn loc);
    emit_expr buf e
  | Instr.Sync_read (r, loc) ->
    emit_tag buf 'S';
    emit_int buf r;
    emit_int buf (rename rn loc)
  | Instr.Sync_write (loc, e) ->
    emit_tag buf 'T';
    emit_int buf (rename rn loc);
    emit_expr buf e
  | Instr.Test_and_set (r, loc) ->
    emit_tag buf 'A';
    emit_int buf r;
    emit_int buf (rename rn loc)
  | Instr.Fetch_and_add (r, loc, e) ->
    emit_tag buf 'F';
    emit_int buf r;
    emit_int buf (rename rn loc);
    emit_expr buf e
  | Instr.Assign (r, e) ->
    emit_tag buf ':';
    emit_int buf r;
    emit_expr buf e
  | Instr.If (c, a, b) ->
    emit_tag buf '?';
    emit_cond buf c;
    emit_block buf rn a;
    emit_block buf rn b
  | Instr.While (c, body) ->
    emit_tag buf '@';
    emit_cond buf c;
    emit_block buf rn body
  | Instr.Nop -> emit_tag buf 'n'
  | Instr.Fence -> emit_tag buf 'f'

and emit_block buf rn instrs =
  emit_tag buf '(';
  List.iter (emit_instr buf rn) instrs;
  emit_tag buf ')'

let emit_thread buf rn env code =
  emit_tag buf 'E';
  List.iter
    (fun (r, v) ->
      emit_int buf r;
      emit_int buf v)
    env;
  emit_tag buf 'C';
  emit_block buf rn code

(* --- exact keys (outcome mode) --------------------------------------------- *)

let exact (v : Interp.view) =
  (* Processor and location ids are observable through outcomes, so the
     key is a plain structural snapshot.  Everything in the view is pure
     data (no closures, no cycles), so marshalling is a total, injective
     encoding — and the visited table compares full keys, so there is no
     hash-collision soundness hole. *)
  Marshal.to_string (v.Interp.v_envs, v.Interp.v_codes, v.Interp.v_memory, v.Interp.v_events) []

(* --- canonical keys (DRF0 mode) -------------------------------------------- *)

(* Rank compression: map each value of [vals] to its index in the sorted
   set of distinct values.  Order-preserving and injective on the
   multiset's order structure, which is all the checker's future
   comparisons can observe. *)
let emit_ranks buf vals =
  let distinct = List.sort_uniq Int.compare vals in
  let rank v =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = v then i else go (i + 1) rest
    in
    go 0 distinct
  in
  List.iter (fun v -> emit_int buf (rank v)) vals

(* One full encoding of the state for a given processor arrangement:
   [order.(i)] is the concrete processor at canonical position [i]. *)
let encode_arrangement (v : Interp.view) (sm : Inc.summary) order =
  let buf = Buffer.create 256 in
  let rn = fresh_renamer () in
  let nprocs = Array.length order in
  emit_int buf v.Interp.v_events;
  Array.iter
    (fun p -> emit_thread buf rn v.Interp.v_envs.(p) v.Interp.v_codes.(p))
    order;
  (* Live locations (those still reachable from remaining code), in
     renaming order; dead locations cannot be accessed again, so neither
     their memory value nor their happens-before metadata can influence
     whether a future race exists. *)
  let live = renamed_locs rn in
  emit_tag buf 'M';
  List.iter
    (fun loc ->
      emit_int buf
        (match List.assoc_opt loc v.Interp.v_memory with
        | Some value -> value
        | None -> 0))
    live;
  (* The happens-before summary, processor-permuted and rank-compressed
     independently per canonical coordinate. *)
  emit_tag buf 'H';
  let loc_summaries =
    List.map
      (fun loc ->
        List.find_opt (fun (l : Inc.loc_summary) -> l.Inc.ls_loc = loc)
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

(* Thread-local signature: the thread's encoding with a private location
   renaming.  Isomorphism-invariant, so symmetric threads (and only
   candidates for symmetry) share a signature. *)
let thread_signature (v : Interp.view) p =
  let buf = Buffer.create 64 in
  emit_thread buf (fresh_renamer ()) v.Interp.v_envs.(p) v.Interp.v_codes.(p)
    ;
  Buffer.contents buf

(* All arrangements obtained by permuting processors within signature
   classes, classes kept in sorted-signature order.  Asymmetric programs
   have singleton classes and exactly one arrangement. *)
let arrangements (v : Interp.view) =
  let nprocs = Array.length v.Interp.v_codes in
  let classes =
    List.init nprocs (fun p -> (thread_signature v p, p))
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

let canonical ?(symmetry = true) (v : Interp.view) (sm : Inc.summary) =
  let identity = Array.init (Array.length v.Interp.v_codes) (fun p -> p) in
  if not symmetry then (encode_arrangement v sm identity, identity)
  else
    match arrangements v with
    | [ order ] -> (encode_arrangement v sm order, order)
    | orders ->
      List.fold_left
        (fun (best_key, best_order) order ->
          let key = encode_arrangement v sm order in
          if String.compare key best_key < 0 then (key, order)
          else (best_key, best_order))
        ( encode_arrangement v sm (List.hd orders),
          List.hd orders )
        (List.tl orders)
