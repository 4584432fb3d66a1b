(* Counters live in integer slots.  [names] maps slot to name; it is
   replaced, never written in place, when a name is registered, so a
   [copy] can share it.  [touched] marks the counters updated since the
   last [clear]: only those are listed, whatever their value. *)
type slot = int

type t = {
  mutable names : string array;
  mutable values : int array;
  mutable touched : bool array;
}

let create () = { names = [||]; values = [||]; touched = [||] }

let find t name =
  let rec go i =
    if i = Array.length t.names then -1
    else if String.equal t.names.(i) name then i
    else go (i + 1)
  in
  go 0

let slot t name =
  match find t name with
  | -1 ->
    t.names <- Array.append t.names [| name |];
    t.values <- Array.append t.values [| 0 |];
    t.touched <- Array.append t.touched [| false |];
    Array.length t.names - 1
  | i -> i

let clear t =
  Array.fill t.values 0 (Array.length t.values) 0;
  Array.fill t.touched 0 (Array.length t.touched) false

let copy t =
  {
    names = t.names;
    values = Array.copy t.values;
    touched = Array.copy t.touched;
  }

let add_at t s n =
  t.values.(s) <- t.values.(s) + n;
  t.touched.(s) <- true

let incr_at t s = add_at t s 1

let max_at t s n =
  if n > t.values.(s) then begin
    t.values.(s) <- n;
    t.touched.(s) <- true
  end

let get t name = match find t name with -1 -> 0 | i -> t.values.(i)

let add t name n = add_at t (slot t name) n

let incr t name = add t name 1

let max_to t name n = max_at t (slot t name) n

let to_list t =
  let acc = ref [] in
  Array.iteri
    (fun i name -> if t.touched.(i) then acc := (name, t.values.(i)) :: !acc)
    t.names;
  List.sort compare !acc

let merge a b =
  let t = create () in
  List.iter (fun (k, v) -> add t k v) (to_list a);
  List.iter (fun (k, v) -> add t k v) (to_list b);
  t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%s = %d@," k v) (to_list t);
  Format.fprintf ppf "@]"
