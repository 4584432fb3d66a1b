type proc = int
type loc = int
type value = int

type kind =
  | Data_read
  | Data_write
  | Sync_read
  | Sync_write
  | Sync_rmw

type t = {
  id : int;
  proc : proc;
  seq : int;
  kind : kind;
  loc : loc;
  read_value : value option;
  written_value : value option;
}

let make ~id ~proc ~seq ~kind ~loc ?read_value ?written_value () =
  { id; proc; seq; kind; loc; read_value; written_value }

let is_read e =
  match e.kind with
  | Data_read | Sync_read | Sync_rmw -> true
  | Data_write | Sync_write -> false

let is_write e =
  match e.kind with
  | Data_write | Sync_write | Sync_rmw -> true
  | Data_read | Sync_read -> false

let is_sync_kind = function
  | Sync_read | Sync_write | Sync_rmw -> true
  | Data_read | Data_write -> false

let is_sync e = is_sync_kind e.kind

let is_data e = not (is_sync e)

let read_only e = is_read e && not (is_write e)

let conflicts a b = a.loc = b.loc && not (read_only a && read_only b)

type rmw = Rmw_tas | Rmw_faa of value | Rmw_fn of (value -> value)

let apply_rmw d old =
  match d with Rmw_tas -> 1 | Rmw_faa n -> old + n | Rmw_fn f -> f old

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Data_read -> "R"
    | Data_write -> "W"
    | Sync_read -> "St"   (* Test-like *)
    | Sync_write -> "Su"  (* Unset-like *)
    | Sync_rmw -> "Sts"   (* TestAndSet-like *))

let loc_names = [| "x"; "y"; "z"; "a"; "b"; "c"; "s"; "t"; "u" |]

let pp_loc ppf l =
  if l >= 0 && l < Array.length loc_names then
    Format.pp_print_string ppf loc_names.(l)
  else Format.fprintf ppf "v%d" l

let pp ppf e =
  let pp_value ppf = function
    | None -> ()
    | Some v -> Format.fprintf ppf "=%d" v
  in
  Format.fprintf ppf "%a(%a%a%a)@@P%d" pp_kind e.kind pp_loc e.loc
    (fun ppf -> function
      | None -> ()
      | Some v -> Format.fprintf ppf "?%d" v)
    e.read_value pp_value e.written_value e.proc

let compare a b = Int.compare a.id b.id
let equal a b = a.id = b.id
