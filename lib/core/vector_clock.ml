type t = int array

let zero n =
  if n < 0 then invalid_arg "Vector_clock.zero: negative size";
  Array.make n 0

let size = Array.length

let get t p = t.(p)

let tick t p =
  let c = Array.copy t in
  c.(p) <- c.(p) + 1;
  c

let set t p v =
  let c = Array.copy t in
  c.(p) <- v;
  c

let check_sizes a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_clock: size mismatch"

let join a b =
  check_sizes a b;
  Array.mapi (fun i v -> max v b.(i)) a

let leq a b =
  (* Hot in the race detectors (one call per conflict check); bail out at
     the first violating component instead of scanning the whole vector. *)
  check_sizes a b;
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let equal a b = a = b

let compare = Stdlib.compare

let concurrent a b = (not (leq a b)) && not (leq b a)
