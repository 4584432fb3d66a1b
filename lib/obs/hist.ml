let nbuckets = 64

type t = {
  counts : int array;
  mutable n : int;
  mutable total : int;
  mutable max_v : int;
}

let create () = { counts = Array.make nbuckets 0; n = 0; total = 0; max_v = 0 }

let copy t =
  { counts = Array.copy t.counts; n = t.n; total = t.total; max_v = t.max_v }

let clear t =
  Array.fill t.counts 0 nbuckets 0;
  t.n <- 0;
  t.total <- 0;
  t.max_v <- 0

(* bucket 0: value 0; bucket i>0: values in [2^(i-1), 2^i). *)
let bucket_of v =
  let v = max 0 v in
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  min (nbuckets - 1) (bits 0 v)

let bounds i = if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let add t v =
  let v = max 0 v in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1;
  t.total <- t.total + v;
  if v > t.max_v then t.max_v <- v

let count t = t.n

let sum t = t.total

let max_value t = t.max_v

(* 0.0 when empty. *)
let mean t = if t.n = 0 then 0.0 else float_of_int t.total /. float_of_int t.n

(* Non-empty buckets as [(lo, hi, count)], ascending. *)
let buckets t =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bounds i in
      acc := (lo, hi, t.counts.(i)) :: !acc
    end
  done;
  !acc

let merge a b =
  let t = create () in
  Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
  t.n <- a.n + b.n;
  t.total <- a.total + b.total;
  t.max_v <- max a.max_v b.max_v;
  t

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("sum", Json.Int t.total);
      ("mean", Json.Float (mean t));
      ("max", Json.Int t.max_v);
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, n) ->
               Json.Obj
                 [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("n", Json.Int n) ])
             (buckets t)) );
    ]
