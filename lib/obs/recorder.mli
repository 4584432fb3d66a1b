(** Structured trace recording.

    The whole stack — processor frontends, cache controllers, the
    directory, the interconnect, the enumerator — emits typed events
    (spans, instants, counters, each tagged with a category and a track)
    into a recorder.  Recording is chunked ({!chunk_size} events per
    allocation) and the hot path is a single boolean test when the sink
    is disabled, so instrumented components cost nothing in ordinary
    runs (measured by experiment E10).

    A recorder is single-domain: emit only from the simulation thread.
    The ambient sink ({!active}/{!with_sink}) lets deeply nested
    components find the current recorder without threading it through
    every constructor. *)

type category =
  | Proc  (** processor-side: operation lifecycles, stalls *)
  | Cache  (** cache controller: misses, reserve-bit windows *)
  | Dir  (** directory: protocol transactions *)
  | Net  (** interconnect: message transits *)
  | Enum  (** enumerator progress *)
  | Camp  (** litmus synthesis, campaign engine *)

val category_name : category -> string
(** ["proc"], ["cache"], ["dir"], ["net"], ["enum"], ["campaign"]. *)

type event =
  | Span of { name : string; cat : category; track : int; ts : int; dur : int }
      (** an interval: [ts .. ts+dur] cycles on [track] *)
  | Instant of { name : string; cat : category; track : int; ts : int }
  | Counter of {
      name : string;
      cat : category;
      track : int;
      ts : int;
      value : int;
    }

type t

val chunk_size : int

val create : unit -> t
(** A fresh, enabled recorder. *)

val disabled : t
(** The shared no-op sink: every emission returns immediately. *)

val enabled : t -> bool

val span : t -> cat:category -> track:int -> name:string -> ts:int -> dur:int -> unit

val instant : t -> cat:category -> track:int -> name:string -> ts:int -> unit

val counter :
  t -> cat:category -> track:int -> name:string -> ts:int -> value:int -> unit

val length : t -> int
(** Events recorded so far. *)

val events : t -> event list
(** In emission order. *)

val clear : t -> unit

(** {2 The ambient sink} *)

val active : unit -> t
(** The current sink; {!disabled} unless inside {!with_sink}. *)

val with_sink : t -> (unit -> 'a) -> 'a
(** Run a thunk with [t] as the ambient sink, restoring the previous
    sink afterwards (exception-safe). *)
