module J = Wo_obs.Json
module Synth = Wo_synth.Synth

(* --- the campaign directory -------------------------------------------------

   Everything multi-process lives in <store>.campaign/ next to the main
   store:

     manifest.json            the campaign's parameters (see below)
     locks/shard-NNNNN.lock   claim files, O_CREAT|O_EXCL, "pid hostname"
     segs/shard-NNNNN.seg     one WOCAMPS1 segment per claimed shard
     segs/shard-NNNNN.done    marker: segment is complete and fsync'ed

   The manifest does not carry the cases themselves — generation is
   deterministic in (families, count, seed) and the binary, so workers
   (possibly on other hosts, sharing the directory) regenerate the
   exact cell plan from parameters alone and agree with the
   coordinator on what every shard index means. *)

let campaign_dir store_path = store_path ^ ".campaign"

let manifest_path dir = Filename.concat dir "manifest.json"

let locks_dir dir = Filename.concat dir "locks"

let segs_dir dir = Filename.concat dir "segs"

let lock_path dir i =
  Filename.concat (locks_dir dir) (Printf.sprintf "shard-%05d.lock" i)

let seg_path dir i =
  Filename.concat (segs_dir dir) (Printf.sprintf "shard-%05d.seg" i)

let done_path dir i =
  Filename.concat (segs_dir dir) (Printf.sprintf "shard-%05d.done" i)

type manifest = {
  mf_runs : int;
  mf_seed : int;
  mf_shard : int;
  mf_count : int;
  mf_families : string list;
  mf_specs : Wo_machines.Spec.t list;
}

let manifest_json m =
  J.Obj
    [
      ("version", J.Int 1);
      ("runs", J.Int m.mf_runs);
      ("seed", J.Int m.mf_seed);
      ("shard", J.Int m.mf_shard);
      ("count", J.Int m.mf_count);
      ("families", J.List (List.map (fun f -> J.String f) m.mf_families));
      ("specs", J.List (List.map Wo_machines.Spec.to_json m.mf_specs));
    ]

let manifest_of_json j =
  let int name =
    match Option.bind (J.member name j) J.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "manifest: missing int %S" name)
  in
  let ( let* ) = Result.bind in
  let* mf_runs = int "runs" in
  let* mf_seed = int "seed" in
  let* mf_shard = int "shard" in
  let* mf_count = int "count" in
  let* mf_families =
    match Option.bind (J.member "families" j) J.to_list_opt with
    | Some l -> Ok (List.filter_map J.to_string_opt l)
    | None -> Error "manifest: missing families"
  in
  let* specs_json =
    match Option.bind (J.member "specs" j) J.to_list_opt with
    | Some l -> Ok l
    | None -> Error "manifest: missing specs"
  in
  let* mf_specs =
    List.fold_left
      (fun acc sj ->
        let* acc = acc in
        let* s = Wo_machines.Spec.of_json sj in
        Ok (s :: acc))
      (Ok []) specs_json
    |> Result.map List.rev
  in
  Ok { mf_runs; mf_seed; mf_shard; mf_count; mf_families; mf_specs }

let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let off = ref 0 in
  while !off < String.length content do
    off := !off + Unix.write_substring fd content !off (String.length content - !off)
  done;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let mkdir_p dir =
  try Unix.mkdir dir 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* --- the coordinator handle -------------------------------------------------- *)

type t = {
  dir : string;
  store_path : string;
  config : Campaign.config;
  plan : Campaign.plan;
}

let config t = t.config

let shards t = Campaign.plan_shards t.plan

let cells t = Campaign.plan_cells t.plan

let cases_of_manifest m =
  let corpus = Campaign.catalogue_corpus () in
  List.concat_map
    (fun family ->
      match
        Synth.batch ~corpus ~family ~base_seed:m.mf_seed ~count:m.mf_count ()
      with
      | Ok cs -> cs
      | Error e -> failwith (Printf.sprintf "coordinator: %s" e))
    m.mf_families

let of_manifest ~store_path m =
  let config =
    {
      Campaign.runs = m.mf_runs;
      base_seed = m.mf_seed;
      domains = None;
      shard = m.mf_shard;
      max_shards = None;
      store_path;
      auto_compact = None;
    }
  in
  let cases = cases_of_manifest m in
  {
    dir = campaign_dir store_path;
    store_path;
    config;
    plan = Campaign.plan config ~specs:m.mf_specs ~cases;
  }

let create config ~specs ~families ~count =
  let store_path = config.Campaign.store_path in
  let m =
    {
      mf_runs = config.Campaign.runs;
      mf_seed = config.Campaign.base_seed;
      mf_shard = config.Campaign.shard;
      mf_count = count;
      mf_families = families;
      mf_specs = specs;
    }
  in
  (* The main store must exist before workers snapshot it; opening it
     first also refuses a bad store path before any directory exists. *)
  Store.close (Store.openf store_path);
  let dir = campaign_dir store_path in
  mkdir_p dir;
  mkdir_p (locks_dir dir);
  mkdir_p (segs_dir dir);
  write_file_atomic (manifest_path dir) (J.to_string (manifest_json m) ^ "\n");
  of_manifest ~store_path m

let attach ~store_path =
  let dir = campaign_dir store_path in
  match J.of_string (read_file (manifest_path dir)) with
  | Error e -> failwith (Printf.sprintf "coordinator: bad manifest: %s" e)
  | Ok j -> (
    match manifest_of_json j with
    | Error e -> failwith e
    | Ok m -> of_manifest ~store_path m)

let shard_done t i = Sys.file_exists (done_path t.dir i)

let done_count t =
  let n = ref 0 in
  for i = 0 to shards t - 1 do
    if shard_done t i then incr n
  done;
  !n

(* --- shard claims ------------------------------------------------------------ *)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true

let read_lock path =
  match read_file path with
  | content -> (
    match String.split_on_char ' ' (String.trim content) with
    | pid :: host :: _ -> (
      match int_of_string_opt pid with
      | Some pid -> Some (pid, host)
      | None -> None)
    | _ -> None)
  | exception Sys_error _ -> None

(* Claim shard [i] by creating its lock file exclusively.  A lock held
   by a dead pid on this host is broken and re-claimed (one retry).
   Two workers racing to break the same stale lock can, in the worst
   interleaving, both claim the shard: that is benign — verdicts are
   deterministic, both segments hold the same bytes per key, and the
   merge keeps the first record — but it costs duplicate work, so the
   break is attempted only after a failed exclusive create.  Locks held
   by other hosts are never broken (no liveness oracle across hosts;
   delete the file manually if a remote worker is known dead). *)
let try_claim t i =
  let path = lock_path t.dir i in
  let attempt () =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | fd ->
      let line =
        Printf.sprintf "%d %s\n" (Unix.getpid ()) (Unix.gethostname ())
      in
      let off = ref 0 in
      while !off < String.length line do
        off := !off + Unix.write_substring fd line !off (String.length line - !off)
      done;
      Unix.close fd;
      true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  attempt ()
  ||
  match read_lock path with
  | Some (pid, host)
    when String.equal host (Unix.gethostname ()) && not (pid_alive pid) ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    attempt ()
  | _ -> false

(* --- the worker loop --------------------------------------------------------- *)

type worker_stats = {
  w_claimed : int;  (** shards this worker settled *)
  w_executed : int;  (** cells simulated *)
  w_replayed : int;  (** cells already settled (main store or segment) *)
}

(* Settle one claimed shard into its segment.  The segment is opened
   with the writer's torn-tail recovery, so re-claiming a shard whose
   previous owner was killed mid-append resumes cleanly: complete
   records replay, the torn one is truncated and re-settled.  The done
   marker is created only after the segment is fsync'ed — its existence
   certifies a complete, durable segment. *)
let settle_shard t memo ~domains ~snap i =
  let seg = Store.openf (seg_path t.dir i) in
  Fun.protect ~finally:(fun () -> Store.close seg) @@ fun () ->
  snap := Store.Snapshot.refresh !snap;
  let indices = Campaign.shard_indices t.plan i in
  let fresh =
    List.filter
      (fun idx ->
        let key = Campaign.cell_store_key t.plan idx in
        (not (Store.Snapshot.mem !snap ~key)) && not (Store.mem seg ~key))
      indices
  in
  let verdicts = Campaign.settle memo ~domains t.config t.plan fresh in
  List.iter
    (fun (idx, s) ->
      Store.add seg ~key:(Campaign.cell_store_key t.plan idx) ~value:s)
    verdicts;
  Store.sync seg;
  Unix.close
    (Unix.openfile (done_path t.dir i) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644);
  (List.length fresh, List.length indices - List.length fresh)

(* One worker: pass over the shard list claiming what it can, repeat
   until a full pass claims nothing (all shards done or held by live
   owners), then exit.  Safe to run any number of these concurrently,
   in this process, other processes, or other hosts sharing the
   directory. *)
let run_worker ?(domains = 1) ?max_claims ?on_shard t =
  let memo = Campaign.memo_create () in
  let snap = ref (Store.Snapshot.load t.store_path) in
  Fun.protect ~finally:(fun () -> Store.Snapshot.close !snap) @@ fun ()
    ->
  let claimed = ref 0 and executed = ref 0 and replayed = ref 0 in
  let budget_left () =
    match max_claims with None -> true | Some m -> !claimed < m
  in
  let progressed = ref true in
  while !progressed && budget_left () do
    progressed := false;
    let i = ref 0 in
    while !i < shards t && budget_left () do
      if (not (shard_done t !i)) && try_claim t !i then begin
        let fresh, old = settle_shard t memo ~domains ~snap !i in
        incr claimed;
        executed := !executed + fresh;
        replayed := !replayed + old;
        progressed := true;
        match on_shard with
        | Some f -> f ~shard:!i ~executed:fresh ~replayed:old
        | None -> ()
      end;
      incr i
    done
  done;
  { w_claimed = !claimed; w_executed = !executed; w_replayed = !replayed }

(* --- local worker processes --------------------------------------------------

   OCaml 5 forbids fork with multiple live domains; the coordinator
   forks all its local workers before anything spawns a domain (the
   worker children set their own domain counts; the parent only
   spawns domains afterwards, in the fallback path or the final
   report run). *)

let spawn_local ?(domains = 1) ~workers t =
  List.init workers (fun _ -> ()) |> List.map @@ fun () ->
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        ignore (run_worker ~domains t);
        0
      with e ->
        Printf.eprintf "worker %d: %s\n%!" (Unix.getpid ())
          (Printexc.to_string e);
        3
    in
    flush stdout;
    flush stderr;
    Unix._exit code
  | pid -> pid

let reap_exited pids =
  List.filter
    (fun pid ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false)
    pids

(* Drive local workers to completion: poll the done markers, reap dead
   children, and — when every child has exited with shards still
   unsettled (all workers crashed, or were killed) — settle the
   remainder in-process, breaking the dead workers' stale locks.  The
   coordinator therefore survives kill -9 of any or all of its
   workers. *)
let supervise ?on_progress t pids =
  let pids = ref pids in
  let total = shards t in
  while done_count t < total do
    pids := reap_exited !pids;
    (match on_progress with
    | Some f -> f ~done_:(done_count t) ~total
    | None -> ());
    if !pids = [] && done_count t < total then
      ignore (run_worker ~domains:(Campaign.config_domains t.config) t)
    else if done_count t < total then ignore (Unix.select [] [] [] 0.1)
  done;
  (match on_progress with
  | Some f -> f ~done_:total ~total
  | None -> ());
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !pids

(* --- merge and cleanup -------------------------------------------------------- *)

(* Fold every completed segment into the main store, in shard order,
   skipping keys the store already settles (idempotent: re-merging
   after an interrupted merge appends nothing twice).  Returns
   (segments merged, records appended). *)
let merge t =
  let store = Store.openf t.store_path in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let merged = ref 0 and appended = ref 0 in
  for i = 0 to shards t - 1 do
    if shard_done t i then begin
      let seg = Store.openf (seg_path t.dir i) in
      Fun.protect ~finally:(fun () -> Store.close seg) @@ fun () ->
      Store.iter seg (fun ~key ~value ->
          if not (Store.mem store ~key) then begin
            Store.add store ~key ~value;
            incr appended
          end);
      incr merged
    end
  done;
  Store.sync store;
  (!merged, !appended)

let rm_rf_dir dir sub =
  let d = Filename.concat dir sub in
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  end

(* Remove the campaign directory — call only after a successful merge;
   the main store then carries every verdict and a fresh coordinator
   run starts clean. *)
let cleanup t =
  rm_rf_dir t.dir "locks";
  rm_rf_dir t.dir "segs";
  (try Sys.remove (manifest_path t.dir) with Sys_error _ -> ());
  try Unix.rmdir t.dir with Unix.Unix_error _ -> ()
