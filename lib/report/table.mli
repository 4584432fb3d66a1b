(** Plain-text tables for the benchmark harness and examples. *)

type align = L | R

val render :
  ?align:align list -> headers:string list -> string list list -> string
(** Render rows under headers with padded columns.  [align] (default all
    left) applies per column; missing cells render empty. *)

val print :
  ?align:align list -> headers:string list -> string list list -> unit

val heading : string -> unit
(** Print an underlined section heading. *)

val subheading : string -> unit
