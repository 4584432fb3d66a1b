(* [draws] is one cell shared by a generator and everything split from
   it, so the family's total draw count is a single read. *)
type t = { mutable state : int64; draws : int ref }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next t =
  incr t.draws;
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let make seed = { state = mix (Int64.of_int (seed * 2 + 1)); draws = ref 0 }

let reseed t seed = t.state <- mix (Int64.of_int ((seed * 2) + 1))

let draws t = !(t.draws)

let split t = { state = mix (next t); draws = t.draws }

let split_into parent child = child.state <- mix (next parent)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's immediate int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let chance t p =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
