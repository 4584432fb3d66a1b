type reason =
  | Read_miss
  | Rmw_wait
  | Rmw_order
  | Sync_commit
  | Release_gate
  | Reserve_wait
  | Counter_drain
  | Buffer_full
  | Buffer_drain
  | Write_ack
  | Migration

let all_reasons =
  [
    Read_miss;
    Rmw_wait;
    Rmw_order;
    Sync_commit;
    Release_gate;
    Reserve_wait;
    Counter_drain;
    Buffer_full;
    Buffer_drain;
    Write_ack;
    Migration;
  ]

let reason_name = function
  | Read_miss -> "read_miss"
  | Rmw_wait -> "rmw"
  | Rmw_order -> "rmw_order"
  | Sync_commit -> "sync_commit"
  | Release_gate -> "release_gate"
  | Reserve_wait -> "reserve"
  | Counter_drain -> "counter_drain"
  | Buffer_full -> "buffer_full"
  | Buffer_drain -> "buffer_drain"
  | Write_ack -> "write_ack"
  | Migration -> "migration"

let reason_of_name s =
  List.find_opt (fun r -> reason_name r = s) all_reasons

let nreasons = List.length all_reasons

(* Position in [all_reasons]. *)
let reason_index = function
  | Read_miss -> 0
  | Rmw_wait -> 1
  | Rmw_order -> 2
  | Sync_commit -> 3
  | Release_gate -> 4
  | Reserve_wait -> 5
  | Counter_drain -> 6
  | Buffer_full -> 7
  | Buffer_drain -> 8
  | Write_ack -> 9
  | Migration -> 10

type t = {
  mutable cells : int array array; (* proc -> per-reason cycles *)
  mutable grand_total : int;
}

let create () = { cells = [||]; grand_total = 0 }

(* Back to the freshly-created shape — rows regrow lazily, so a cleared
   collector evolves exactly like a new one: a session's run and a fresh
   run hold rows for the same processors, and their results compare
   equal structurally, not just by content. *)
let clear t =
  t.cells <- [||];
  t.grand_total <- 0

let copy t =
  { cells = Array.map Array.copy t.cells; grand_total = t.grand_total }

let ensure t proc =
  if proc >= Array.length t.cells then begin
    let cells = Array.make (proc + 1) [||] in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    for p = Array.length t.cells to proc do
      cells.(p) <- Array.make nreasons 0
    done;
    t.cells <- cells
  end

let add t ?(sink = Recorder.disabled) ?now ~proc reason cycles =
  if cycles > 0 && proc >= 0 then begin
    ensure t proc;
    let row = t.cells.(proc) in
    let i = reason_index reason in
    row.(i) <- row.(i) + cycles;
    t.grand_total <- t.grand_total + cycles;
    match now with
    | Some at when Recorder.enabled sink ->
      Recorder.span sink ~cat:Recorder.Proc ~track:proc
        ~name:("stall." ^ reason_name reason)
        ~ts:(at - cycles) ~dur:cycles
    | _ -> ()
  end

let get t ~proc reason =
  if proc < 0 || proc >= Array.length t.cells then 0
  else t.cells.(proc).(reason_index reason)

let proc_total t ~proc =
  if proc < 0 || proc >= Array.length t.cells then 0
  else Array.fold_left ( + ) 0 t.cells.(proc)

let total t = t.grand_total

let procs t =
  let acc = ref [] in
  for p = Array.length t.cells - 1 downto 0 do
    if Array.fold_left ( + ) 0 t.cells.(p) > 0 then acc := p :: !acc
  done;
  !acc

let per_proc t ~proc =
  List.filter_map
    (fun r ->
      let c = get t ~proc r in
      if c > 0 then Some (r, c) else None)
    all_reasons

let merge a b =
  let t = create () in
  let absorb src =
    Array.iteri
      (fun p row ->
        Array.iteri
          (fun i c ->
            if c > 0 then add t ~proc:p (List.nth all_reasons i) c)
          row)
      src.cells
  in
  absorb a;
  absorb b;
  t

let to_stats t =
  let entries =
    List.concat_map
      (fun p ->
        List.map
          (fun (r, c) -> (Printf.sprintf "P%d.stall.%s" p (reason_name r), c))
          (per_proc t ~proc:p))
      (procs t)
    |> List.sort compare
  in
  if t.grand_total > 0 then entries @ [ ("stall.total", t.grand_total) ]
  else entries

let to_json t =
  Json.Obj
    [
      ("total", Json.Int t.grand_total);
      ( "per_proc",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("proc", Json.Int p);
                   ("total", Json.Int (proc_total t ~proc:p));
                   ( "reasons",
                     Json.Obj
                       (List.map
                          (fun (r, c) -> (reason_name r, Json.Int c))
                          (per_proc t ~proc:p)) );
                 ])
             (procs t)) );
    ]
