(** Parallel crash-image exploration: fans programs out over the
    {!Parallel} domain pool. Exploring a program is one interpreted run
    ({!Runtime.Crash_space.explore}), so nothing is shared between
    domains beyond the (read-only) programs. *)

type job = {
  name : string;
  prog : Nvmir.Prog.t;
  entry : string;
  args : int list;
}

type program_report = {
  name : string;
  report : Runtime.Crash_space.report;
  elapsed_s : float;  (** seconds exploring this program, on its domain *)
}

val explore_program :
  ?config:Runtime.Config.t ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  ?entry:string ->
  ?args:int list ->
  Nvmir.Prog.t ->
  Runtime.Crash_space.report
(** {!Runtime.Crash_space.explore} with [entry] defaulting to
    ["main"]. *)

val sweep :
  ?domains:int ->
  ?config:Runtime.Config.t ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:Runtime.Crash_space.oracle ->
  job list ->
  program_report list
(** Explore many programs at once, one program per pool task; results
    are returned in job order, one per job (jobs may share a name). *)

val pp_program_report : program_report Fmt.t
