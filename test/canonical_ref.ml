(* Reference implementation of the compiled canonical DRF0 key.

   The summary-based, list-based construction the production key
   ({!Wo_prog.Cinterp.canonical_key}) must reproduce byte for byte: it
   materialises a {!Wo_core.Drf0_inc.summary}, ranks each coordinate by
   sorting, finds symmetric threads by sorting polymorphic signature
   tuples, and builds one [Buffer] per arrangement.  Kept as the
   identity oracle for test_compiled; no production code links it. *)

module P = Wo_prog.Prog_compile
module C = Wo_prog.Cinterp
module Inc = Wo_core.Drf0_inc

(* Order-preserving per-coordinate renumbering of the summary values. *)
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

(* Runtime signature of one thread: static symmetry class, pc and
   register values. *)
let signature st p =
  let t = C.compiled st in
  ( t.P.classes.(p),
    C.pc st p,
    Array.init (Array.length t.P.reg_ids.(p)) (fun i ->
        C.reg st (t.P.reg_base.(p) + i)) )

let encode_arrangement st (sm : Inc.summary) order =
  let t = C.compiled st in
  let nprocs = t.P.nprocs in
  let buf = Buffer.create 128 in
  P.emit_varint buf (C.events_so_far st);
  Array.iter
    (fun p ->
      P.emit_varint buf t.P.classes.(p);
      P.emit_varint buf (C.pc st p);
      let base = t.P.reg_base.(p) in
      for i = 0 to Array.length t.P.reg_ids.(p) - 1 do
        P.emit_varint buf (C.reg st (base + i))
      done)
    order;
  (* Live locations, renamed by first occurrence in arrangement order. *)
  let nlocs = Array.length t.P.locs in
  let rename = Array.make nlocs (-1) in
  let live_rev = ref [] in
  let next = ref 0 in
  Array.iter
    (fun p ->
      let ll = P.live_locs t p (C.pc st p) in
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
  List.iter (fun li -> P.emit_varint buf (C.load st li)) live;
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

(* Arrangements permuting threads within equal-signature groups; past
   [max_arrangements] only the identity order is tried. *)
let max_arrangements = 24

let arrangements st =
  let nprocs = (C.compiled st).P.nprocs in
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
  let identity = Array.init (C.compiled st).P.nprocs (fun p -> p) in
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
