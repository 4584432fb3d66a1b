(* One histogram per slot; [names] is replaced, never written in place,
   when a type is registered.  A type is listed once it has a message. *)
type slot = int

type t = { mutable names : string array; mutable hists : Hist.t array }

let create () = { names = [||]; hists = [||] }

let slot t name =
  let rec go i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| name |];
      t.hists <- Array.append t.hists [| Hist.create () |];
      i
    end
    else if String.equal t.names.(i) name then i
    else go (i + 1)
  in
  go 0

let clear t =
  Array.iter (fun h -> if Hist.count h > 0 then Hist.clear h) t.hists

(* Only the recorded types, so a snapshot holds no empty histograms. *)
let copy t =
  let keep = ref [] in
  for i = Array.length t.names - 1 downto 0 do
    if Hist.count t.hists.(i) > 0 then keep := i :: !keep
  done;
  let keep = Array.of_list !keep in
  {
    names = Array.map (fun i -> t.names.(i)) keep;
    hists = Array.map (fun i -> Hist.copy t.hists.(i)) keep;
  }

let record_at t s ~latency = Hist.add t.hists.(s) latency

let record t ~name ~latency = record_at t (slot t name) ~latency

let to_list t =
  let acc = ref [] in
  Array.iteri
    (fun i name ->
      let h = t.hists.(i) in
      if Hist.count h > 0 then acc := (name, Hist.count h, h) :: !acc)
    t.names;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !acc

let total t = Array.fold_left (fun acc h -> acc + Hist.count h) 0 t.hists

let to_stats t =
  List.map (fun (name, count, _) -> ("msg." ^ name, count)) (to_list t)

let merge a b =
  let t = create () in
  let absorb src =
    List.iter
      (fun (name, _, h) ->
        let s = slot t name in
        t.hists.(s) <- Hist.merge t.hists.(s) h)
      (to_list src)
  in
  absorb a;
  absorb b;
  t

let to_json t =
  Json.List
    (List.map
       (fun (name, count, h) ->
         Json.Obj
           [
             ("type", Json.String name);
             ("count", Json.Int count);
             ("latency", Hist.to_json h);
           ])
       (to_list t))
