let acquire_tas ~lock ~scratch =
  [
    Instr.Test_and_set (scratch, lock);
    Instr.While
      (Instr.Ne (Instr.Reg scratch, Instr.Const 0),
       [ Instr.Test_and_set (scratch, lock) ]);
  ]

(* Test-and-TestAndSet acquire: spin with a read-only synchronization
   [Test] and attempt the TestAndSet only when the lock looks free — the
   idiom Section 6 discusses, whose spinning the Section-5.3
   implementation serializes but the DRF1 refinement does not. *)
let acquire_ttas ~lock ~scratch ~scratch2 =
  (* scratch holds the TestAndSet result (0 = acquired); scratch2 the value
     observed by the read-only Test. *)
  [
    Instr.Assign (scratch, Instr.Const 1);
    Instr.While
      (Instr.Ne (Instr.Reg scratch, Instr.Const 0),
       [
         Instr.Sync_read (scratch2, lock);
         Instr.If
           (Instr.Eq (Instr.Reg scratch2, Instr.Const 0),
            [ Instr.Test_and_set (scratch, lock) ],
            []);
       ]);
  ]

let release ~lock = [ Instr.Sync_write (lock, Instr.Const 0) ]

let critical_section ~lock ~scratch ?(use_ttas = false) ?scratch2 body =
  let acquire =
    if use_ttas then
      match scratch2 with
      | Some s2 -> acquire_ttas ~lock ~scratch ~scratch2:s2
      | None -> invalid_arg "critical_section: use_ttas requires scratch2"
    else acquire_tas ~lock ~scratch
  in
  acquire @ body @ release ~lock

let barrier_wait ~counter ~participants ~scratch ~spin =
  [
    Instr.Fetch_and_add (scratch, counter, Instr.Const 1);
    Instr.Assign (spin, Instr.Add (Instr.Reg scratch, Instr.Const 1));
    Instr.While
      (Instr.Lt (Instr.Reg spin, Instr.Const participants),
       [ Instr.Sync_read (spin, counter) ]);
  ]

let local_work n = List.init (max 0 n) (fun _ -> Instr.Nop)
