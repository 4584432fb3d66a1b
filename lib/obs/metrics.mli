(** Versioned metrics-JSON documents.

    Every [BENCH_*.json] the benches write, and every [--metrics FILE]
    the CLI writes, is one of these: a top-level object carrying the
    schema name and version, the experiment tag, and the
    experiment-specific payload fields.  Consumers check
    [{!validate}]-style structure before trusting the rest. *)

val schema_version : int
(** Bumped whenever the envelope or a shared payload shape changes. *)

val make : experiment:string -> (string * Json.t) list -> Json.t
(** Wrap payload [fields] in the versioned envelope.  Payload fields
    must not collide with the envelope keys ([schema], [schema_version],
    [experiment]). *)

val write_file : path:string -> Json.t -> unit
(** Pretty-print to [path] with a trailing newline. *)

val validate : Json.t -> (unit, string) result
(** Check the envelope: correct schema name, a version we understand,
    and a non-empty experiment tag. *)

val experiment : Json.t -> string option
