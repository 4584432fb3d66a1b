let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* Strided fan-out over an option array: worker [k] takes items
   k, k+d, 2d+k, ...  Cheap, deterministic, and free of work-queue
   synchronization; sweep cells are coarse enough that stride imbalance
   is noise.  The calling domain doubles as worker 0 so [domains:1]
   costs no spawn at all. *)
let parallel_map ~domains f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let out = Array.make n None in
  let d = max 1 (min domains n) in
  if d = 1 then Array.iteri (fun i x -> out.(i) <- Some (f x)) arr
  else begin
    (* A worker that raises must not leave the others orphaned, and the
       caller must not crash on a hole in [out] ([Option.get]) instead of
       seeing the real exception: capture the failure (lowest worker index
       wins, so the surfaced exception is deterministic for a fixed domain
       count), join every domain, then re-raise with its backtrace. *)
    let failure = Atomic.make None in
    let worker k () =
      try
        let i = ref k in
        while !i < n do
          out.(!i) <- Some (f arr.(!i));
          i := !i + d
        done
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        let rec record () =
          match Atomic.get failure with
          | Some (k0, _, _) when k0 <= k -> ()
          | cur ->
            if not (Atomic.compare_and_set failure cur (Some (k, e, bt)))
            then record ()
        in
        record ()
    in
    let spawned = List.init (d - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    List.iter Domain.join spawned;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end;
  Array.to_list (Array.map Option.get out)

(* --- program keys ---------------------------------------------------------- *)

(* Structural identity of the parts of a program the SC outcome set
   depends on.  The payload is the compiled program's canonical byte
   encoding (code, index tables, initial memory, observability) — a
   versioned format that is stable across runs and OCaml releases,
   where [Marshal]'s format is a compiler implementation detail.  Two
   programs share an encoding iff they compile to the same int-coded
   form, which determines the SC outcome set.  Programs the compiler
   cannot lower (beyond the packing bounds — far beyond anything a
   sweep enumerates) fall back to a tagged [Marshal] payload; the tag
   byte keeps the two namespaces disjoint.  The digest is only an
   accelerator: on a digest hit the full payload is compared too, so a
   Digest collision between distinct programs can never hand a test the
   wrong memoized SC outcome set. *)
type program_key = { pk_digest : Digest.t; pk_payload : string }

let program_key_art (p : Wo_prog.Program.t) =
  let art = Wo_prog.Prog_compile.compile p in
  let payload =
    match art with
    | Some a -> "C" ^ Wo_prog.Prog_compile.encoding a
    | None ->
      "M"
      ^ Marshal.to_string
          ( p.Wo_prog.Program.threads,
            p.Wo_prog.Program.initial,
            p.Wo_prog.Program.observable )
          []
  in
  ({ pk_digest = Digest.string payload; pk_payload = payload }, art)

let program_key p = fst (program_key_art p)

let key_equal a b =
  a.pk_digest = b.pk_digest && String.equal a.pk_payload b.pk_payload

let find_keyed key table =
  List.find_map (fun (k, v) -> if key_equal k key then Some v else None) table

(* Digest-indexed map over program keys: O(1) per lookup, and a digest
   hit still confirms the full payload, so collisions cannot alias. *)
module Key_tbl = struct
  type 'a t = (Digest.t, (program_key * 'a) list) Hashtbl.t

  let create n : 'a t = Hashtbl.create n

  let find (t : 'a t) key =
    match Hashtbl.find_opt t key.pk_digest with
    | None -> None
    | Some bindings -> find_keyed key bindings

  let add (t : 'a t) key v =
    let prev = Option.value ~default:[] (Hashtbl.find_opt t key.pk_digest) in
    Hashtbl.replace t key.pk_digest (prev @ [ (key, v) ])
end

(* --- per-domain machine sessions ------------------------------------------- *)

(* One reusable session per machine per domain, so a sweep builds each
   machine's fabric/memory system once per worker instead of once per
   cell×seed.  Keyed by machine name with a physical-identity
   check: a later campaign that rebuilds a machine under the same name
   gets a fresh session, never one aliasing the dead machine's state. *)
let session_dls :
    (string, Wo_machines.Machine.t * Wo_machines.Machine.session) Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let domain_session (m : Wo_machines.Machine.t) =
  let tbl = Domain.DLS.get session_dls in
  match Hashtbl.find_opt tbl m.Wo_machines.Machine.name with
  | Some (m', s) when m' == m -> s
  | _ ->
    let s = Wo_machines.Machine.new_session m Wo_machines.Machine.Compiled in
    Hashtbl.replace tbl m.Wo_machines.Machine.name (m, s);
    s

(* --- workload campaigns --------------------------------------------------- *)

type workload_cell = {
  workload : Workload.t;
  w_machine : Wo_machines.Machine.t;
  avg_cycles : int;
  invariant_failures : int;
}

let workload_campaign ?(runs = 20) ?(base_seed = 1) ?domains ~machines
    workloads =
  let d = match domains with Some d -> max 1 d | None -> default_domains () in
  let jobs =
    List.concat_map (fun w -> List.map (fun m -> (w, m)) machines) workloads
  in
  parallel_map ~domains:d
    (fun ((w : Workload.t), (m : Wo_machines.Machine.t)) ->
      let session = domain_session m in
      let compiled = Wo_prog.Prog_compile.compile w.Workload.program in
      let total = ref 0 in
      let bad = ref 0 in
      for seed = base_seed to base_seed + runs - 1 do
        let r =
          Wo_machines.Machine.session_run session ~seed ?compiled
            w.Workload.program
        in
        total := !total + r.Wo_machines.Machine.cycles;
        match w.Workload.validate r.Wo_machines.Machine.outcome with
        | Ok () -> ()
        | Error _ -> incr bad
      done;
      {
        workload = w;
        w_machine = m;
        avg_cycles = !total / runs;
        invariant_failures = !bad;
      })
    jobs
