(** IR interpreter over the NVM simulator. All persistent operations go
    through {!Pmem}, so attached listeners — in particular the dynamic
    checker — observe exactly the events an instrumented binary would
    produce (steps 5–6 of Figure 8). *)

exception Runtime_error of string * Nvmir.Loc.t
exception Out_of_fuel

exception Call_depth_exceeded of Nvmir.Loc.t
(** A call at this location would nest more than {!max_call_depth}
    calls: runaway recursion, reported before it exhausts the stack. *)

val max_call_depth : int
(** 10,000 nested calls below the entry function. *)

exception Corrupt_read of Pmem.addr * Nvmir.Loc.t
(** Typed outcome of an unguarded read (a load, or a pointer deref
    during place resolution) hitting a media-corrupt slot. Raised only
    under [trap_corrupt_reads]; the default mode records the read in
    {!corrupt_reads} so silently-accepting recovery code runs to
    completion — the very bug the recovery tier classifies. CRC
    primitives ({!Nvmir.Instr.Crc_of}/[Crc_check]) are guarded reads
    and never trigger this. *)

(** Persistence-ordering boundaries — the instruction classes at which
    an interleaving scheduler may preempt the executing thread. *)
type boundary =
  | Bflush
  | Bfence
  | Bpersist
  | Btx_begin
  | Btx_end
  | Bepoch_begin
  | Bepoch_end
  | Bstrand_begin
  | Bstrand_end

val boundary_name : boundary -> string

type t

val create :
  ?fuel:int ->
  ?boundary_hook:(boundary -> Nvmir.Loc.t -> unit) ->
  ?trap_corrupt_reads:bool ->
  pmem:Pmem.t ->
  Nvmir.Prog.t ->
  t
(** [fuel] bounds executed steps (default 5M); {!max_call_depth}
    bounds nested calls. [boundary_hook] fires
    {e before} each boundary instruction executes — so a hook observing
    [Bflush] runs between the preceding stores and the write-back,
    which is exactly the preemption window delay-injection schedulers
    need. The hook may perform effects (the fuzzer yields to its
    scheduler from it); the interpreter keeps no state across the
    call. *)

val pmem : t -> Pmem.t
val steps : t -> int

val corrupt_reads : t -> (Pmem.addr * Nvmir.Loc.t) list
(** Unguarded reads that hit corrupt slots, in execution order (empty
    unless the heap was {!Pmem.restore}d from a corrupted image). *)

val run : ?entry:string -> ?args:int list -> t -> Value.t
(** Execute [entry] (default ["main"]) with integer arguments.
    @raise Runtime_error on ill-formed executions.
    @raise Out_of_fuel when the step budget is exhausted.
    @raise Call_depth_exceeded when calls nest deeper than
    {!max_call_depth}.
    @raise Invalid_argument when [entry] is undefined. *)

val run_values : ?entry:string -> ?args:Value.t list -> t -> Value.t
(** [run] with pre-built argument values (references included), for
    callers that thread one shared allocation into several entry
    points — the fuzzer's [fuzz_setup] convention. *)
