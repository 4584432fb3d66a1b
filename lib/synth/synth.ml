module I = Wo_prog.Instr

type classification = Drf0_by_construction | Racy_by_construction | Unknown

let classification_name = function
  | Drf0_by_construction -> "drf0"
  | Racy_by_construction -> "racy"
  | Unknown -> "unknown"

type case = {
  name : string;
  family : string;
  seed : int;
  program : Wo_prog.Program.t;
  classification : classification;
  forbidden : (Wo_prog.Outcome.t -> bool) option;
  forbidden_desc : string option;
}

type corpus_entry = {
  base_name : string;
  base_program : Wo_prog.Program.t;
  base_drf0 : bool;
}

(* --- the legacy random families (the draw order is fixed, so every
   historical (seed, params) pair still names the same program) ---------- *)

(* Register map per thread: r0..r3 observable accumulators, r4/r5 lock
   scratch. *)
let acc_regs = [ 0; 1; 2; 3 ]

let lock_disciplined ~seed ?(procs = 3) ?(sections_per_proc = 3)
    ?(ops_per_section = 4) ?(shared_locs = 2) ?(locks = 2) () =
  let rng = Wo_sim.Rng.make seed in
  (* Locations: locks first, then the shared data they guard.  Each shared
     location is guarded by lock (loc mod locks): a thread may only touch
     it while holding that lock. *)
  let lock_of_data d = d mod locks in
  let data_loc d = locks + d in
  let thread _p =
    List.concat
      (List.init sections_per_proc (fun _ ->
           let lock = Wo_sim.Rng.int rng locks in
           let guarded =
             List.filter (fun d -> lock_of_data d = lock)
               (List.init shared_locs (fun d -> d))
           in
           let body =
             if guarded = [] then [ I.Nop ]
             else
               List.init ops_per_section (fun _ ->
                   let d = Wo_sim.Rng.pick rng guarded in
                   let loc = data_loc d in
                   if Wo_sim.Rng.bool rng then
                     I.Read (Wo_sim.Rng.pick rng acc_regs, loc)
                   else
                     I.Write
                       ( loc,
                         I.Add
                           ( I.Reg (Wo_sim.Rng.pick rng acc_regs),
                             I.Const (Wo_sim.Rng.int rng 100) ) ))
           in
           Wo_prog.Snippets.critical_section ~lock ~scratch:4
             ~use_ttas:(Wo_sim.Rng.bool rng) ~scratch2:5 body))
  in
  let threads = List.init procs thread in
  let observable =
    List.concat_map (fun p -> List.map (fun r -> (p, r)) acc_regs)
      (List.init procs (fun p -> p))
  in
  Wo_prog.Program.make
    ~name:(Printf.sprintf "lock-disciplined-%d" seed)
    ~observable threads

let racy ~seed ?(procs = 2) ?(ops_per_proc = 4) ?(locs = 3) () =
  let rng = Wo_sim.Rng.make seed in
  (* Warm every location into every cache first (reads into a scratch
     register excluded from the outcome), so the cached machines race with
     shared copies resident -- the situation Figure 1 describes.  The
     warm-up reads are separated from the racy section by local delay
     only; they race too, but since the observable outcome ignores them
     the SC comparison is unaffected (the warm-up reads' locations are
     read again or overwritten later). *)
  let warmup =
    List.init locs (fun loc -> I.Read (5, loc)) @ List.init 12 (fun _ -> I.Nop)
  in
  let thread _p =
    warmup
    @ List.init ops_per_proc (fun _ ->
          let loc = Wo_sim.Rng.int rng locs in
          if Wo_sim.Rng.bool rng then I.Read (Wo_sim.Rng.int rng 4, loc)
          else I.Write (loc, I.Const (1 + Wo_sim.Rng.int rng 9)))
  in
  let observable =
    List.concat_map
      (fun p -> List.map (fun r -> (p, r)) [ 0; 1; 2; 3 ])
      (List.init procs (fun p -> p))
  in
  Wo_prog.Program.make
    ~name:(Printf.sprintf "racy-%d" seed)
    ~observable
    (List.init procs thread)

(* --- families ------------------------------------------------------------- *)

let families =
  [ "cycle-drf0"; "cycle-racy"; "cycle-mixed"; "mutate"; "lock-disciplined";
    "racy" ]

let cycle_case ~family ~seed ~sync =
  let rng = Wo_sim.Rng.make seed in
  let shape = Cycle.generate ~rng ~sync () in
  let name = Printf.sprintf "%s-%d-%s" family seed (Cycle.slug shape) in
  let classification =
    if Cycle.all_sync shape then Drf0_by_construction
    else if Cycle.no_sync shape then Racy_by_construction
    else Unknown
  in
  {
    name;
    family;
    seed;
    program = Cycle.program ~name shape;
    classification;
    forbidden = Some (Cycle.forbidden shape);
    forbidden_desc = Some (Cycle.forbidden_desc shape);
  }

let mutate_case ~corpus ~seed =
  match corpus with
  | [] -> Error "family \"mutate\" needs a non-empty corpus"
  | _ ->
    let rng = Wo_sim.Rng.make seed in
    let base = Wo_sim.Rng.pick rng corpus in
    let program, apps = Mutate.mutate ~rng base.base_program in
    let classification =
      match Mutate.transfer ~base_drf0:base.base_drf0 apps with
      | `Drf0 -> Drf0_by_construction
      | `Racy -> Racy_by_construction
      | `Unknown -> Unknown
    in
    let detail =
      match apps with
      | [] -> "id"
      | _ ->
        String.concat ","
          (List.map
             (fun (a : Mutate.application) ->
               Mutate.kind_name a.Mutate.kind ^ ":" ^ a.Mutate.detail)
             apps)
    in
    let name = Printf.sprintf "mutate-%d-%s[%s]" seed base.base_name detail in
    Ok
      {
        name;
        family = "mutate";
        seed;
        program = { program with Wo_prog.Program.name };
        classification;
        forbidden = None;
        forbidden_desc = None;
      }

let generate ?(corpus = []) ~family ~seed () =
  match family with
  | "cycle-drf0" -> Ok (cycle_case ~family ~seed ~sync:`All)
  | "cycle-racy" -> Ok (cycle_case ~family ~seed ~sync:`None)
  | "cycle-mixed" -> Ok (cycle_case ~family ~seed ~sync:`Mixed)
  | "mutate" -> mutate_case ~corpus ~seed
  | "lock-disciplined" ->
    let rng = Wo_sim.Rng.make seed in
    let procs = Wo_sim.Rng.int_in rng 2 3 in
    let sections_per_proc = Wo_sim.Rng.int_in rng 1 3 in
    let ops_per_section = Wo_sim.Rng.int_in rng 2 4 in
    Ok
      {
        name = Printf.sprintf "lock-disciplined-%d" seed;
        family;
        seed;
        program =
          lock_disciplined ~seed ~procs ~sections_per_proc ~ops_per_section ();
        classification = Drf0_by_construction;
        forbidden = None;
        forbidden_desc = None;
      }
  | "racy" ->
    let rng = Wo_sim.Rng.make seed in
    let procs = Wo_sim.Rng.int_in rng 2 3 in
    let ops_per_proc = Wo_sim.Rng.int_in rng 2 4 in
    Ok
      {
        name = Printf.sprintf "racy-%d" seed;
        family;
        seed;
        program = racy ~seed ~procs ~ops_per_proc ();
        classification = Racy_by_construction;
        forbidden = None;
        forbidden_desc = None;
      }
  | f ->
    Error
      (Printf.sprintf "unknown family %S; try one of: %s" f
         (String.concat ", " families))

let emit_generated n =
  let r = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled r then
    Wo_obs.Recorder.counter r ~cat:Wo_obs.Recorder.Camp ~track:0
      ~name:"synth.generated" ~ts:0 ~value:n

let batch ?corpus ~family ~base_seed ~count () =
  let rec go acc seed =
    if seed >= base_seed + count then Ok (List.rev acc)
    else
      match generate ?corpus ~family ~seed () with
      | Ok case -> go (case :: acc) (seed + 1)
      | Error _ as e -> e
  in
  Result.map
    (fun cases ->
      emit_generated (List.length cases);
      cases)
    (go [] base_seed)
