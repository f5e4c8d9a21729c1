(** Trace collection (§4.3): bounded depth-first path enumeration per
    function, then memoized bottom-up splicing of callee traces into
    callers at call sites (Figure 11). [collect] materializes every
    trace (the differential oracle); [stream] walks a root's paths
    lazily, threading a caller's state so that paths sharing a prefix
    share the work of stepping it. *)

type t = Event.t list

val events_of_instr : Dsa.Dsg.t -> fname:string -> Nvmir.Instr.t -> Event.t list
(** The events one instruction contributes; writes and flushes the DSG
    proves volatile contribute nothing. *)

val collect_function : Config.t -> Dsa.Dsg.t -> Nvmir.Func.t -> t list
(** Phase 1: intra-procedural traces, with unexpanded call marks. *)

val collect :
  ?config:Config.t ->
  ?roots:string list ->
  Dsa.Dsg.t ->
  Nvmir.Prog.t ->
  (string * t list) list
(** Fully-expanded traces per root, all materialized. [roots] defaults
    to the call-graph roots (functions never called within the
    program). *)

val default_roots : Nvmir.Prog.t -> string list
(** The roots a rootless {!collect}/{!stream} enumerates, in the same
    order: call-graph roots, or every function when all are called.
    Incremental callers use this to key per-root cache entries. *)

(** {1 Streaming engine} *)

type stats = {
  mutable peak_live : int;
      (** high-water mark of simultaneously-live path frames *)
  mutable paths : int;  (** paths yielded so far *)
  mutable events : int;  (** non-marker events across yielded paths *)
}

type source = {
  root : string;
  s_stats : stats;  (** updated as [traces] or [walk] is forced *)
  traces : t Seq.t;  (** [walk] with the reversed event list as state *)
  walk : 'a. 'a -> ('a -> Event.t -> 'a) -> 'a Seq.t;
      (** [walk init step] enumerates the same paths as [traces], in the
          same order, as the state [step] builds from [init] along each.
          A branch point's state is computed once and reused by every
          child, so each distinct path prefix is stepped once. *)
}

val stream :
  ?config:Config.t ->
  ?roots:string list ->
  Dsa.Dsg.t ->
  Nvmir.Prog.t ->
  source list
(** One lazy path walk per root, enumerating exactly the traces
    {!collect} returns, in the same order. All DSG resolution happens
    before this returns; forcing the walks only reads shared state, so
    distinct roots may be walked from distinct domains (compress the
    arena first — see {!Dsa.Arena.compress}). Each force of [traces] or
    [walk] runs a fresh walk; a walk must stay on one domain. *)

val pp : t Fmt.t

val length : t -> int
(** Non-marker events. *)
