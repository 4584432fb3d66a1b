open Wo_core

type result = {
  read_values : (Event.proc * int * Event.value) list;
  final : (Event.loc * Event.value) list;
}

let result_of_execution exn =
  let read_values =
    Execution.events exn
    |> List.filter_map (fun (e : Event.t) ->
           match e.Event.read_value with
           | Some v when Event.is_read e -> Some (e.Event.proc, e.Event.seq, v)
           | _ -> None)
    |> List.sort compare
  in
  { read_values; final = Execution.final_memory exn }

let compare_result a b = compare (a.read_values, a.final) (b.read_values, b.final)

(* Backtracking interleaving search.  The search state is the per-processor
   next-event pointer plus the memory contents; both are needed in the memo
   key because different interleavings reaching the same pointers can leave
   different last-writer values in memory. *)
let witness ?(init = fun _ -> 0) ?expected_final threads =
  let arr = Array.of_list (List.map Array.of_list threads) in
  let n = Array.length arr in
  let ptr = Array.make n 0 in
  let mem : (Event.loc, Event.value) Hashtbl.t = Hashtbl.create 17 in
  let read loc =
    match Hashtbl.find_opt mem loc with Some v -> v | None -> init loc
  in
  let visited = Hashtbl.create 997 in
  let state_key () =
    let b = Buffer.create 64 in
    Array.iter (fun p -> Buffer.add_string b (string_of_int p); Buffer.add_char b ',') ptr;
    Hashtbl.fold (fun l v acc -> (l, v) :: acc) mem []
    |> List.sort compare
    |> List.iter (fun (l, v) ->
           Buffer.add_string b (Printf.sprintf "%d=%d;" l v));
    Buffer.contents b
  in
  let executable (e : Event.t) =
    match e.Event.kind with
    | Event.Data_write | Event.Sync_write -> true
    | Event.Data_read | Event.Sync_read | Event.Sync_rmw -> (
      match e.Event.read_value with
      | None -> true (* unconstrained read *)
      | Some v -> read e.Event.loc = v)
  in
  let apply (e : Event.t) =
    if Event.is_write e then begin
      let prev = Hashtbl.find_opt mem e.Event.loc in
      (match e.Event.written_value with
      | Some v -> Hashtbl.replace mem e.Event.loc v
      | None -> ());
      prev
    end
    else None
  in
  let undo (e : Event.t) prev =
    if Event.is_write e && e.Event.written_value <> None then
      match prev with
      | Some v -> Hashtbl.replace mem e.Event.loc v
      | None -> Hashtbl.remove mem e.Event.loc
  in
  let final_ok () =
    match expected_final with
    | None -> true
    | Some expected ->
      List.for_all (fun (l, v) -> read l = v) expected
  in
  let total = Array.fold_left (fun acc t -> acc + Array.length t) 0 arr in
  let rec go acc placed =
    if placed = total then if final_ok () then Some (List.rev acc) else None
    else begin
      let key = state_key () in
      if Hashtbl.mem visited key then None
      else begin
        Hashtbl.replace visited key ();
        let rec try_proc p =
          if p >= n then None
          else if ptr.(p) >= Array.length arr.(p) then try_proc (p + 1)
          else begin
            let e = arr.(p).(ptr.(p)) in
            if executable e then begin
              let prev = apply e in
              ptr.(p) <- ptr.(p) + 1;
              match go (e :: acc) (placed + 1) with
              | Some w -> Some w
              | None ->
                ptr.(p) <- ptr.(p) - 1;
                undo e prev;
                try_proc (p + 1)
            end
            else try_proc (p + 1)
          end
        in
        try_proc 0
      end
    end
  in
  go [] 0

let threads_of_execution exn =
  let procs = Execution.procs exn in
  List.map
    (fun p ->
      Execution.events exn
      |> List.filter (fun (e : Event.t) -> e.Event.proc = p))
    procs

let is_sequentially_consistent ?init exn =
  witness ?init ~expected_final:(Execution.final_memory exn)
    (threads_of_execution exn)
  <> None
