type t = {
  name : string;
  threads : Instr.t list array;
  initial : (Wo_core.Event.loc * Wo_core.Event.value) list;
  observable : (Wo_core.Event.proc * Instr.reg) list option;
}

let make ?(name = "anonymous") ?(initial = []) ?observable threads =
  { name; threads = Array.of_list threads; initial; observable }

let num_procs t = Array.length t.threads

let max_procs = Sys.int_size - 2

let locs t =
  let from_code =
    Array.to_list t.threads |> List.concat_map Instr.memory_locs
  in
  let from_init = List.map fst t.initial in
  List.sort_uniq Int.compare (from_code @ from_init)

let initial_value t loc =
  match List.assoc_opt loc t.initial with Some v -> v | None -> 0

type features = { sync_free : bool; loop_free : bool; max_thread_writes : int }

let features t =
  (* (sync ops seen, loops seen, write instructions) of a block *)
  let rec block acc instrs = List.fold_left instr acc instrs
  and instr ((sync, loops, writes) as acc) = function
    | Instr.Write _ -> (sync, loops, writes + 1)
    | Instr.Sync_write _ -> (true, loops, writes + 1)
    | Instr.Sync_read _ | Instr.Test_and_set _ | Instr.Fetch_and_add _ ->
      (true, loops, writes)
    | Instr.While (_, b) ->
      let sync, _, writes = block acc b in
      (sync, true, writes)
    | Instr.If (_, a, b) -> block (block acc a) b
    | Instr.Read _ | Instr.Assign _ | Instr.Nop | Instr.Fence -> acc
  in
  Array.fold_left
    (fun f instrs ->
      let sync, loops, writes = block (false, false, 0) instrs in
      {
        sync_free = f.sync_free && not sync;
        loop_free = f.loop_free && not loops;
        max_thread_writes = max f.max_thread_writes writes;
      })
    { sync_free = true; loop_free = true; max_thread_writes = 0 }
    t.threads

let has_loops t =
  let rec block instrs = List.exists instr instrs
  and instr = function
    | Instr.While _ -> true
    | Instr.If (_, a, b) -> block a || block b
    | Instr.Read _ | Instr.Write _ | Instr.Sync_read _ | Instr.Sync_write _
    | Instr.Test_and_set _ | Instr.Fetch_and_add _ | Instr.Assign _
    | Instr.Nop | Instr.Fence ->
      false
  in
  Array.exists block t.threads

let pp ppf t =
  Format.fprintf ppf "@[<v>program %S" t.name;
  if t.initial <> [] then begin
    Format.fprintf ppf "@,initially:";
    List.iter
      (fun (l, v) ->
        Format.fprintf ppf " %a=%d" Wo_core.Event.pp_loc l v)
      t.initial
  end;
  Array.iteri
    (fun p instrs ->
      Format.fprintf ppf "@,@[<v 2>P%d:@,%a@]" p Instr.pp_block instrs)
    t.threads;
  Format.fprintf ppf "@]"
