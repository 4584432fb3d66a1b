module I = Wo_prog.Instr

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let conventional_locations =
  [
    ("x", Wo_prog.Names.x);
    ("y", Wo_prog.Names.y);
    ("z", Wo_prog.Names.z);
    ("a", Wo_prog.Names.a);
    ("b", Wo_prog.Names.b);
    ("c", Wo_prog.Names.c);
    ("s", Wo_prog.Names.s);
    ("t", Wo_prog.Names.t);
    ("u", Wo_prog.Names.u);
  ]

type state = {
  mutable name : string;
  mutable initial : (Wo_core.Event.loc * Wo_core.Event.value) list;
  mutable threads : (int * I.t list) list;  (* processor id, code *)
  mutable clauses : (string * (int * int * int) list) list;
      (* clause name, conjunction of (proc, reg, value) *)
  locations : (string, Wo_core.Event.loc) Hashtbl.t;
  mutable next_loc : Wo_core.Event.loc;
}

let initial_state () =
  let locations = Hashtbl.create 16 in
  List.iter (fun (n, l) -> Hashtbl.replace locations n l) conventional_locations;
  {
    name = "anonymous";
    initial = [];
    threads = [];
    clauses = [];
    locations;
    next_loc = 9;
  }

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let ident_like s = s <> "" && String.for_all is_ident_char s

let location st ln name =
  if not (ident_like name) then fail ln "invalid location name %S" name;
  match Hashtbl.find_opt st.locations name with
  | Some l -> l
  | None ->
    let l = st.next_loc in
    st.next_loc <- l + 1;
    Hashtbl.replace st.locations name l;
    l

let register_opt s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n when n >= 0 -> Some n
    | _ -> None
  else None

let register ln s =
  match register_opt s with
  | Some n -> n
  | None -> fail ln "expected a register (rN), got %S" s

let split_on_string ~sep s =
  (* split on the first occurrence *)
  let slen = String.length sep and len = String.length s in
  let rec find i =
    if i + slen > len then None
    else if String.sub s i slen = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + slen) (len - i - slen))

(* EXPR: INT | rN | rN + INT | rN + rN *)
let parse_expr ln s =
  let atom a =
    let a = String.trim a in
    match int_of_string_opt a with
    | Some n -> I.Const n
    | None ->
      if String.length a >= 2 && a.[0] = 'r' then I.Reg (register ln a)
      else fail ln "expected an integer or register, got %S" a
  in
  match split_on_string ~sep:"+" s with
  | Some (l, r) -> I.Add (atom l, atom r)
  | None -> atom s

(* call-like form: f(arg1, arg2, ...) *)
let parse_call s =
  match String.index_opt s '(' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
    let f = String.trim (String.sub s 0 i) in
    let inner = String.sub s (i + 1) (String.length s - i - 2) in
    let args = String.split_on_char ',' inner |> List.map String.trim in
    Some (f, args)
  | _ -> None

(* The longest thread a file may define, checked before a [nop*K]
   allocates its [K] ops. *)
let max_thread_ops = 0xffff

let too_long ln = fail ln "thread exceeds the limit of %d ops" max_thread_ops

(* [room]: how many more ops the thread may hold. *)
let parse_statement st ln ~room s =
  let s = String.trim s in
  if s = "" then []
  else if s = "fence" then [ I.Fence ]
  else if s = "nop" then [ I.Nop ]
  else if String.length s > 4 && String.sub s 0 4 = "nop*" then begin
    match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
    | Some k when k > room -> too_long ln
    | Some k when k >= 0 -> List.init k (fun _ -> I.Nop)
    | _ -> fail ln "bad repetition in %S" s
  end
  else
    match split_on_string ~sep:":=" s with
    | None -> (
      match parse_call s with
      | Some ("unset", [ loc ]) ->
        [ I.Sync_write (location st ln loc, I.Const 0) ]
      | Some ("sync", [ loc; e ]) ->
        [ I.Sync_write (location st ln loc, parse_expr ln e) ]
      | Some _ -> fail ln "unknown statement %S" s
      | None -> fail ln "cannot parse statement %S" s)
    | Some (lhs, rhs) -> (
        let lhs = String.trim lhs and rhs = String.trim rhs in
        if register_opt lhs <> None then begin
          (* register destination: read-like *)
          let reg = register ln lhs in
          match parse_call rhs with
          | Some ("test", [ loc ]) -> [ I.Sync_read (reg, location st ln loc) ]
          | Some ("tas", [ loc ]) -> [ I.Test_and_set (reg, location st ln loc) ]
          | Some ("faa", [ loc; k ]) ->
            [ I.Fetch_and_add (reg, location st ln loc, parse_expr ln k) ]
          | Some _ -> fail ln "unknown operation %S" rhs
          | None ->
            if
              ident_like rhs
              && int_of_string_opt rhs = None
              && register_opt rhs = None
            then [ I.Read (reg, location st ln rhs) ]
            else [ I.Assign (reg, parse_expr ln rhs) ]
        end
        else
          (* location destination: a data write *)
          [ I.Write (location st ln lhs, parse_expr ln rhs) ])

let parse_thread st ln body =
  let ops = ref 0 in
  String.split_on_char ';' body
  |> List.concat_map (fun s ->
         let instrs = parse_statement st ln ~room:(max_thread_ops - !ops) s in
         ops := !ops + List.length instrs;
         if !ops > max_thread_ops then too_long ln;
         instrs)

let parse_init st ln body =
  String.split_on_char ' ' body
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> String.trim s <> "")
  |> List.iter (fun assignment ->
         match String.split_on_char '=' assignment with
         | [ loc; v ] -> (
           match int_of_string_opt (String.trim v) with
           | Some v ->
             st.initial <-
               (location st ln (String.trim loc), v) :: st.initial
           | None -> fail ln "bad initial value in %S" assignment)
         | _ -> fail ln "bad initialization %S" assignment)

(* clause: Pi:rj=v & Pk:rl=w *)
let parse_clause ln body =
  let term t =
    let t = String.trim t in
    match String.split_on_char ':' t with
    | [ p; rest ] when String.length p >= 2 && p.[0] = 'P' -> (
      match
        ( int_of_string_opt (String.sub p 1 (String.length p - 1)),
          String.split_on_char '=' rest )
      with
      | Some proc, [ r; v ] -> (
        match int_of_string_opt (String.trim v) with
        | Some v -> (proc, register ln r, v)
        | None -> fail ln "bad value in clause term %S" t)
      | _ -> fail ln "bad clause term %S" t)
    | _ -> fail ln "bad clause term %S (expected Pi:rj=v)" t
  in
  String.split_on_char '&' body |> List.map term

(* Bounds on the DRF0 check that sets the [drf0] flag.  A program beyond
   them is rejected rather than labelled racy. *)
let drf0_max_events = 64
let drf0_max_executions = 200_000

let of_string text =
  let st = initial_state () in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then
        match split_on_string ~sep:":" line with
        | None -> fail ln "expected `key: ...', got %S" line
        | Some (key, body) -> (
          let key = String.trim key and body = String.trim body in
          match key with
          | "name" -> st.name <- body
          | "init" -> parse_init st ln body
          | "forbid" -> st.clauses <- ("forbidden", parse_clause ln body) :: st.clauses
          | "exists" -> st.clauses <- ("exists", parse_clause ln body) :: st.clauses
          | _ ->
            if String.length key >= 2 && key.[0] = 'P' then
              match int_of_string_opt (String.sub key 1 (String.length key - 1)) with
              | Some p ->
                if List.mem_assoc p st.threads then
                  fail ln "processor P%d defined twice" p
                else if p >= Wo_prog.Program.max_procs then
                  fail ln "processor P%d exceeds the limit of %d processors" p
                    Wo_prog.Program.max_procs
                else st.threads <- (p, parse_thread st ln body) :: st.threads
              | None -> fail ln "unknown key %S" key
            else fail ln "unknown key %S" key))
    (String.split_on_char '\n' text);
  if st.threads = [] then fail 0 "no processors defined";
  let sorted = List.sort compare st.threads in
  List.iteri
    (fun i (p, _) ->
      if i <> p then fail 0 "processors must be numbered P0, P1, ... (missing P%d)" i)
    sorted;
  let program =
    Wo_prog.Program.make ~name:st.name ~initial:(List.rev st.initial)
      (List.map snd sorted)
  in
  let interesting =
    List.rev_map
      (fun (name, terms) ->
        ( name,
          fun outcome ->
            List.for_all
              (fun (p, r, v) -> Wo_prog.Outcome.register outcome p r = Some v)
              terms ))
      st.clauses
  in
  let drf0 =
    match
      Wo_prog.Enumerate.check_drf0_stateful ~max_events:drf0_max_events
        ~max_executions:drf0_max_executions ~domains:1 program
    with
    | Ok (), _ -> true
    | Error _, _ -> false
    | exception Wo_prog.Enumerate.Limit_exceeded ->
      fail 0
        "cannot decide DRF0: an execution has more than %d events or there \
         are more than %d executions"
        drf0_max_events drf0_max_executions
  in
  {
    Litmus.name = st.name;
    description = "parsed litmus test";
    program;
    drf0;
    loops = false;
    interesting;
  }

let of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text
