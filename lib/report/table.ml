type align = L | R

let render ?align ~headers rows =
  let ncols =
    List.fold_left max (List.length headers) (List.map List.length rows)
  in
  let get row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let width i =
    List.fold_left
      (fun w row -> max w (String.length (get row i)))
      (String.length (get headers i))
      rows
  in
  let widths = List.init ncols width in
  let aligns =
    match align with
    | None -> List.init ncols (fun _ -> L)
    | Some a ->
      List.init ncols (fun i ->
          match List.nth_opt a i with Some x -> x | None -> L)
  in
  let pad s w a =
    let n = String.length s in
    if n >= w then s
    else
      let fill = String.make (w - n) ' ' in
      match a with L -> s ^ fill | R -> fill ^ s
  in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i (w, a) -> pad (get row i) w a)
         (List.combine widths aligns))
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line headers :: sep :: List.map line rows)

let print ?align ~headers rows =
  print_endline (render ?align ~headers rows);
  print_newline ()

let heading s =
  print_newline ();
  print_endline s;
  print_endline (String.make (String.length s) '=');
  print_newline ()

let subheading s =
  print_newline ();
  print_endline s;
  print_endline (String.make (String.length s) '-')
