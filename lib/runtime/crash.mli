(** Crash simulation: execute a program, injecting a crash after the
    k-th persistent-memory event for every k, and evaluate a consistency
    invariant over the durable state that survives. The oracle the test
    suite uses to show that model-violation bugs cause real
    inconsistency windows. *)

exception Crashed

type outcome = {
  crash_point : int;  (** event index the crash was injected after *)
  consistent : bool;
  detail : string;
}

type report = {
  outcomes : outcome list;
  total_points : int;
  violations : int;
}

val count_events :
  ?config:Config.t -> ?entry:string -> ?args:int list -> Nvmir.Prog.t -> int

val counting_listener : int ref -> Pmem.listener
(** Counts every persistent-memory event (write, flush, fence, tx
    begin/end) into the ref. *)

val crashing_listener : at:int -> int ref -> Pmem.listener
(** Like {!counting_listener} but raises {!Crashed} when the counter
    reaches [at]. *)

val test :
  ?config:Config.t ->
  ?entry:string ->
  ?args:int list ->
  invariant:(Pmem.t -> (unit, string) result) ->
  Nvmir.Prog.t ->
  report
(** [invariant] receives the post-crash heap; read through
    {!Pmem.durable_value} to see exactly what survived. *)

(** {1 Invariant-free exploration} *)

type exposure = {
  point : int;
  at_risk_slots : int;
      (** durable now vs durable after a completed run *)
  volatile_slots : int;  (** cached vs durable at the crash point *)
}

type exposure_report = {
  points : exposure list;
  final_at_risk : int;
      (** slots still volatile when the program ends: writes that never
          became durable at all (the Figure 9 class of bug) *)
}

val explore :
  ?config:Config.t -> ?entry:string -> ?args:int list -> Nvmir.Prog.t ->
  exposure_report
(** Crash at every persistent event and measure how far the durable
    state is from the completed run's — a bug-agnostic view of the
    program's crash exposure. Non-zero [final_at_risk] means some write
    never became durable at all. *)

val pp_exposure_report : exposure_report Fmt.t

val consistent : report -> bool
val first_violation : report -> outcome option
val pp_report : report Fmt.t
