module I = Wo_prog.Instr

type conflict = Rf | Fr | Ws

type edge = { conflict : conflict; sync_from : bool; sync_to : bool }

type shape = { edges : edge list; padding : int list }

(* At least two edges and matching padding length. *)
let validate s =
  let k = List.length s.edges in
  if k < 2 then Error "cycle needs at least two conflict edges"
  else if List.length s.padding <> k then
    Error "padding must list one entry per processor"
  else Ok ()

let conflict_name = function Rf -> "Rf" | Fr -> "Fr" | Ws -> "Ws"

let slug s = String.concat "" (List.map (fun e -> conflict_name e.conflict) s.edges)

(* Endpoint directions fixed by the conflict kind: the source of an
   [Rf]/[Ws] edge writes, the source of an [Fr] edge reads; dually for
   destinations.  True means "write". *)
let src_writes = function Rf | Ws -> true | Fr -> false
let dst_writes = function Rf -> false | Fr | Ws -> true

(* The value written by each endpoint of edge [i] (both on location
   [i+1 mod k]): 1 for the source, 2 for the destination.  At most one
   of the two writes per location in the Rf/Fr cases, both for Ws —
   either way every write to a location stores a distinct non-zero
   value, so the outcome orients the edge unambiguously. *)
let src_value = 1
let dst_value = 2

let arr s = Array.of_list s.edges

(* Processor [i]'s first access is the destination endpoint of edge
   [i-1] (location [i]), its second the source endpoint of edge [i]
   (location [i+1]). *)
let first_access edges i =
  let k = Array.length edges in
  let e = edges.((i + k - 1) mod k) in
  let loc = i in
  if dst_writes e.conflict then
    if e.sync_to then I.Sync_write (loc, I.Const dst_value)
    else I.Write (loc, I.Const dst_value)
  else if e.sync_to then I.Sync_read (0, loc)
  else I.Read (0, loc)

let second_access edges i =
  let k = Array.length edges in
  let e = edges.(i) in
  let loc = (i + 1) mod k in
  if src_writes e.conflict then
    if e.sync_from then I.Sync_write (loc, I.Const src_value)
    else I.Write (loc, I.Const src_value)
  else if e.sync_from then I.Sync_read (1, loc)
  else I.Read (1, loc)

let program ~name s =
  (match validate s with Ok () -> () | Error e -> invalid_arg e);
  let edges = arr s in
  let k = Array.length edges in
  let padding = Array.of_list s.padding in
  let thread i =
    List.init padding.(i) (fun _ -> I.Nop)
    @ [ first_access edges i; second_access edges i ]
  in
  let observable =
    List.concat
      (List.init k (fun i ->
           let firsts =
             if dst_writes edges.((i + k - 1) mod k).conflict then []
             else [ (i, 0) ]
           in
           let seconds =
             if src_writes edges.(i).conflict then [] else [ (i, 1) ]
           in
           firsts @ seconds))
  in
  Wo_prog.Program.make ~name ~observable (List.init k thread)

(* One observation per edge [i] (source = P[i]'s second access,
   destination = P[i+1]'s first access, location [i+1 mod k]):
   - Rf: the destination read returned the source's value;
   - Fr: the source read returned the initial value (the destination's
     write is the location's only write);
   - Ws: final memory holds the destination's value, so the source
     write is coherence-earlier. *)
let edge_obs edges i =
  let k = Array.length edges in
  let e = edges.(i) in
  let loc = (i + 1) mod k in
  match e.conflict with
  | Rf -> `Reg ((i + 1) mod k, 0, src_value)
  | Fr -> `Reg (i, 1, 0)
  | Ws -> `Mem (loc, dst_value)

let forbidden s (o : Wo_prog.Outcome.t) =
  let edges = arr s in
  let k = Array.length edges in
  let check i =
    match edge_obs edges i with
    | `Reg (p, r, v) -> Wo_prog.Outcome.register o p r = Some v
    | `Mem (l, v) -> Wo_prog.Outcome.memory_value o l = Some v
  in
  let rec all i = i >= k || (check i && all (i + 1)) in
  all 0

let forbidden_desc s =
  let edges = arr s in
  let k = Array.length edges in
  String.concat " /\\ "
    (List.init k (fun i ->
         match edge_obs edges i with
         | `Reg (p, r, v) -> Printf.sprintf "P%d:r%d=%d" p r v
         | `Mem (l, v) -> Printf.sprintf "[%d]=%d" l v))

let all_sync s = List.for_all (fun e -> e.sync_from && e.sync_to) s.edges

let no_sync s =
  List.for_all (fun e -> (not e.sync_from) && not e.sync_to) s.edges

let generate ~rng ?(min_procs = 2) ?(max_procs = 4) ~sync () =
  let k = Wo_sim.Rng.int_in rng min_procs max_procs in
  let edge _ =
    let conflict = Wo_sim.Rng.pick rng [ Rf; Fr; Ws ] in
    let sync_from, sync_to =
      match sync with
      | `All -> (true, true)
      | `None -> (false, false)
      | `Mixed -> (Wo_sim.Rng.bool rng, Wo_sim.Rng.bool rng)
    in
    { conflict; sync_from; sync_to }
  in
  let edges = List.init k edge in
  let padding = List.init k (fun _ -> Wo_sim.Rng.int rng 3) in
  { edges; padding }
