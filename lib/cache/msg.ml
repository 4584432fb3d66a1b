type recall_mode = For_share | For_own

type t =
  | GetS of { loc : Wo_core.Event.loc; requester : int; sync : bool }
  | GetX of { loc : Wo_core.Event.loc; requester : int; sync : bool }
  | DataS of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      bound_at : int;
          (* when the value was bound (dispatched) at the directory -- the
             read's commit time per Section 5's definition *)
    }
  | DataX of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      acks_pending : int;
    }
  | Inv of { loc : Wo_core.Event.loc }
  | InvAck of { loc : Wo_core.Event.loc; from : int }
  | Recall of {
      loc : Wo_core.Event.loc;
      mode : recall_mode;
      sync : bool;
      requester : int;
    }
  | RecallAck of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      from : int;
    }
  | WriteDone of { loc : Wo_core.Event.loc }
  | PutX of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      from : int;
    }
  | PutAck of { loc : Wo_core.Event.loc }

let loc = function
  | GetS { loc; _ } | GetX { loc; _ } | DataS { loc; _ } | DataX { loc; _ }
  | Inv { loc } | InvAck { loc; _ } | Recall { loc; _ }
  | RecallAck { loc; _ } | WriteDone { loc } | PutX { loc; _ }
  | PutAck { loc } ->
    loc

let tags =
  [|
    "GetS"; "GetX"; "DataS"; "DataX"; "Inv"; "InvAck"; "Recall"; "RecallAck";
    "WriteDone"; "PutX"; "PutAck";
  |]

let tag_index = function
  | GetS _ -> 0
  | GetX _ -> 1
  | DataS _ -> 2
  | DataX _ -> 3
  | Inv _ -> 4
  | InvAck _ -> 5
  | Recall _ -> 6
  | RecallAck _ -> 7
  | WriteDone _ -> 8
  | PutX _ -> 9
  | PutAck _ -> 10

let pp ppf m =
  let l = Wo_core.Event.pp_loc in
  match m with
  | GetS { loc; requester; sync } ->
    Format.fprintf ppf "GetS(%a%s) from %d" l loc (if sync then ",sync" else "") requester
  | GetX { loc; requester; sync } ->
    Format.fprintf ppf "GetX(%a%s) from %d" l loc (if sync then ",sync" else "") requester
  | DataS { loc; value; bound_at } ->
    Format.fprintf ppf "DataS(%a=%d@@%d)" l loc value bound_at
  | DataX { loc; value; acks_pending } ->
    Format.fprintf ppf "DataX(%a=%d, acks=%d)" l loc value acks_pending
  | Inv { loc } -> Format.fprintf ppf "Inv(%a)" l loc
  | InvAck { loc; from } -> Format.fprintf ppf "InvAck(%a) from %d" l loc from
  | Recall { loc; mode; sync; requester } ->
    Format.fprintf ppf "Recall(%a, %s%s) for %d" l loc
      (match mode with For_share -> "share" | For_own -> "own")
      (if sync then ", sync" else "")
      requester
  | RecallAck { loc; value; from } ->
    Format.fprintf ppf "RecallAck(%a=%d) from %d" l loc value from
  | WriteDone { loc } -> Format.fprintf ppf "WriteDone(%a)" l loc
  | PutX { loc; value; from } ->
    Format.fprintf ppf "PutX(%a=%d) from %d" l loc value from
  | PutAck { loc } -> Format.fprintf ppf "PutAck(%a)" l loc
