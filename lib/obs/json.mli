(** A minimal JSON value, printer and parser.

    The repository deliberately has no external JSON dependency; every
    machine-readable artifact ([wo trace --format=perfetto],
    [BENCH_*.json], the metrics files) goes through this module, and the
    test suite parses the emitted documents back to validate them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize.  [pretty] (default false) indents with two spaces.
    Non-finite floats serialize as [null] (JSON has no representation
    for them). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error carries an offset. *)

(** {2 Accessors} (shallow, total) *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for missing fields or non-objects. *)

val to_list_opt : t -> t list option

val to_string_opt : t -> string option

val to_bool_opt : t -> bool option

val to_int_opt : t -> int option
(** Also accepts integral floats. *)

val to_float_opt : t -> float option
(** Accepts both [Int] and [Float]. *)
