(** The checking rules of Table 4 (persistency-model violations) and
    Table 5 (performance bugs). Rule metadata lives in {!catalog} so the
    toolkit can print the tables from the registry itself; the checking
    functions are pure over scoped traces, each a fold of one rule of
    the {!Incremental} machine. *)

type ctx = { model : Model.t; dsg : Dsa.Dsg.t; tenv : Nvmir.Ty.env }

(** An event annotated with its transaction nesting, epoch ordinal,
    fence-delimited persist-unit ordinal and strand id. *)
type scoped = {
  ev : Event.t;
  idx : int;
  tx_depth : int;
  tx_id : int;  (** innermost enclosing transaction, -1 when none *)
  tx_stack : int list;
  epoch : int;  (** marked-epoch ordinal, -1 outside epochs *)
  unit_ : int;  (** fence-delimited persist-unit ordinal *)
  strand : int;  (** enclosing strand id, -1 outside strands *)
}

val scope_trace : Trace.t -> scoped list
(** The scoping {!Incremental.step} applies, folded over a trace. *)

(** {1 Individual rules} — exposed for targeted testing *)

val check_unflushed_write : ctx -> scoped list -> Warning.t list
val check_multiple_writes_at_once : ctx -> scoped list -> Warning.t list
val check_missing_persist_barrier : ctx -> scoped list -> Warning.t list
val check_missing_barrier_nested_tx : ctx -> scoped list -> Warning.t list
val check_semantic_mismatch : ctx -> scoped list -> Warning.t list
val check_strand_dependence : ctx -> scoped list -> Warning.t list

val check_flush_coverage : ctx -> scoped list -> Warning.t list
(** One stateful scan covering the four Table 5 performance rules. *)

(** {1 Registry} *)

type rule_meta = {
  id : Warning.rule_id;
  models : Model.t list;  (** models the rule applies to *)
  statement : string;  (** the formal rule as stated in Table 4/5 *)
}

val catalog : rule_meta list
val meta_of : Warning.rule_id -> rule_meta
val applicable_rules : Model.t -> rule_meta list

val check_trace : ctx -> Trace.t -> Warning.t list
(** Run every applicable rule over one trace. *)

val static_witness : scoped list -> Warning.t -> Witness.t
(** The minimal event slice behind a warning fired on the scoped path:
    what {!check_trace} attaches while witness capture is enabled. *)

(** {1 Incremental checking} — the rule machine the streaming engine
    threads through its path walk.

    A [state] holds the scoping and the pass state of each of the seven
    rules, all persistent: [step] advances every rule by one event, and
    forking a path is reusing the value, so paths that share a prefix
    share the work of stepping it. [finish] only emits the end-of-path
    decisions and, while witness capture is on, the witnesses. For any
    trace, [finish (feed (start ctx) trace) = check_trace ctx trace], and
    each [check_*] is one rule of the same machine folded over a scoped
    list. *)
module Incremental : sig
  type state

  val start : ctx -> state
  val step : state -> Event.t -> state
  val feed : state -> Event.t list -> state
  val finish : state -> Warning.t list
end
