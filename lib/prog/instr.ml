type reg = int

type expr =
  | Const of int
  | Reg of reg
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr

type cond =
  | Eq of expr * expr
  | Ne of expr * expr
  | Lt of expr * expr
  | Le of expr * expr

type t =
  | Read of reg * Wo_core.Event.loc
  | Write of Wo_core.Event.loc * expr
  | Sync_read of reg * Wo_core.Event.loc
  | Sync_write of Wo_core.Event.loc * expr
  | Test_and_set of reg * Wo_core.Event.loc
  | Fetch_and_add of reg * Wo_core.Event.loc * expr
  | Assign of reg * expr
  | If of cond * t list * t list
  | While of cond * t list
  | Nop
  | Fence

let rec eval_expr env = function
  | Const n -> n
  | Reg r -> env r
  | Add (a, b) -> eval_expr env a + eval_expr env b
  | Sub (a, b) -> eval_expr env a - eval_expr env b
  | Mul (a, b) -> eval_expr env a * eval_expr env b

let eval_cond env = function
  | Eq (a, b) -> eval_expr env a = eval_expr env b
  | Ne (a, b) -> eval_expr env a <> eval_expr env b
  | Lt (a, b) -> eval_expr env a < eval_expr env b
  | Le (a, b) -> eval_expr env a <= eval_expr env b

let rec expr_regs acc = function
  | Const _ -> acc
  | Reg r -> r :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> expr_regs (expr_regs acc a) b

let cond_regs acc = function
  | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) ->
    expr_regs (expr_regs acc a) b

let rec fold f acc instrs =
  List.fold_left
    (fun acc i ->
      let acc = f acc i in
      match i with
      | If (_, a, b) -> fold f (fold f acc a) b
      | While (_, b) -> fold f acc b
      | Read _ | Write _ | Sync_read _ | Sync_write _ | Test_and_set _
      | Fetch_and_add _ | Assign _ | Nop | Fence ->
        acc)
    acc instrs

let memory_locs instrs =
  fold
    (fun acc i ->
      match i with
      | Read (_, l) | Write (l, _) | Sync_read (_, l) | Sync_write (l, _)
      | Test_and_set (_, l) | Fetch_and_add (_, l, _) ->
        l :: acc
      | Assign _ | If _ | While _ | Nop | Fence -> acc)
    [] instrs
  |> List.sort_uniq Int.compare

let regs instrs =
  fold
    (fun acc i ->
      match i with
      | Read (r, _) | Sync_read (r, _) | Test_and_set (r, _) -> r :: acc
      | Fetch_and_add (r, _, e) -> expr_regs (r :: acc) e
      | Write (_, e) | Sync_write (_, e) -> expr_regs acc e
      | Assign (r, e) -> expr_regs (r :: acc) e
      | If (c, _, _) | While (c, _) -> cond_regs acc c
      | Nop | Fence -> acc)
    [] instrs
  |> List.sort_uniq Int.compare

let rec pp_expr ppf = function
  | Const n -> Format.pp_print_int ppf n
  | Reg r -> Format.fprintf ppf "r%d" r
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_expr a pp_expr b

let pp_cond ppf c =
  let op, a, b =
    match c with
    | Eq (a, b) -> ("==", a, b)
    | Ne (a, b) -> ("!=", a, b)
    | Lt (a, b) -> ("<", a, b)
    | Le (a, b) -> ("<=", a, b)
  in
  Format.fprintf ppf "%a %s %a" pp_expr a op pp_expr b

let rec pp ppf = function
  | Read (r, l) ->
    Format.fprintf ppf "r%d := %a" r Wo_core.Event.pp_loc l
  | Write (l, e) ->
    Format.fprintf ppf "%a := %a" Wo_core.Event.pp_loc l pp_expr e
  | Sync_read (r, l) ->
    Format.fprintf ppf "r%d := Test(%a)" r Wo_core.Event.pp_loc l
  | Sync_write (l, e) ->
    Format.fprintf ppf "SyncWrite(%a, %a)" Wo_core.Event.pp_loc l pp_expr e
  | Test_and_set (r, l) ->
    Format.fprintf ppf "r%d := TestAndSet(%a)" r Wo_core.Event.pp_loc l
  | Fetch_and_add (r, l, e) ->
    Format.fprintf ppf "r%d := FetchAndAdd(%a, %a)" r Wo_core.Event.pp_loc l
      pp_expr e
  | Assign (r, e) -> Format.fprintf ppf "r%d := %a" r pp_expr e
  | If (c, a, b) ->
    Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,}" pp_cond c pp_block a;
    if b <> [] then Format.fprintf ppf "@[<v 2> else {@,%a@]@,}" pp_block b
  | While (c, b) ->
    Format.fprintf ppf "@[<v 2>while %a {@,%a@]@,}" pp_cond c pp_block b
  | Nop -> Format.pp_print_string ppf "nop"
  | Fence -> Format.pp_print_string ppf "fence"

and pp_block ppf instrs =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp ppf instrs
