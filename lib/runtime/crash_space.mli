(** Crash-image state-space exploration.

    Where {!Crash} inspects one durable image per crash point (nothing
    in flight persisted), this module enumerates the set of durable
    images reachable under the cache-line write-back model: at a crash,
    any subset of the in-flight lines ([Dirty], or [Flushed] but not yet
    fenced) may have reached NVM, with open transactions rolled back.
    Images are pruned by persistence-equivalence hashing and the subset
    space is capped by a bound — exhaustive below it, deterministic
    sampling above it (always including the empty and full subsets, so
    the prefix image is never lost). *)

(** How an image is judged consistent. *)
type oracle =
  | Sequential
      (** At a crash point, the image must match some program-order
          prefix of the persistent write sequence (the states strict
          persistency allows); at {!Exit} the image must equal the full
          write-back (no write left volatile). *)
  | Invariant of ((Pmem.addr -> Value.t) -> (unit, string) result)
      (** A user predicate over the materialized durable image. Unknown
          addresses read as {!Value.Vnull}. *)

(** A unit of exploration: crash after the k-th persistent event, or
    program exit (where still-volatile lines are simply lost). *)
type task = Point of int | Exit

type witness = {
  w_task : task;
  w_persisted : (int * int) list;
      (** the in-flight lines that reached NVM in this image *)
  w_detail : string;
}

type point_result = {
  task : task;
  candidate_lines : int;
  subsets_enumerated : int;
  distinct_images : int;
  sampled : bool;  (** the subset space exceeded the bound *)
  witnesses : witness list;  (** one per distinct inconsistent image *)
}

type report = {
  points : point_result list;
  crash_points : int;  (** event-injection points, excluding exit *)
  images_enumerated : int;
  images_distinct : int;
  inconsistent : int;
  witnesses : witness list;
}

val default_bound : int
(** 256 subsets per crash point. *)

val count_points :
  ?config:Config.t -> ?entry:string -> ?args:int list -> Nvmir.Prog.t -> int
(** Alias of {!Crash.count_events}: how many [Point] tasks a program
    has. *)

(** {1 Image enumeration} — the recovery tier's entry point. *)

(** One distinct durable image of a crash task: which in-flight lines
    reached NVM, and the materialized per-object slot arrays (transaction
    rollback applied). *)
type crash_image = {
  ci_task : task;
  ci_persisted : (int * int) list;
  ci_image : (int, Value.t array) Hashtbl.t;
}

val iter_images :
  ?config:Config.t ->
  ?entry:string ->
  ?args:int list ->
  ?bound:int ->
  ?seed:int ->
  (Pmem.t -> crash_image list -> bool -> unit) ->
  Nvmir.Prog.t ->
  int
(** [iter_images f prog] runs [prog] once. At every crash point, in
    order, and then at {!Exit}, it calls [f pmem images sampled]: the
    crashed heap, the distinct durable images it can leave (same
    enumeration, pruning and bound as {!explore}), and whether the
    subset space was sampled. The heap is the live one of the run: [f]
    may read it (it is what {!Pmem.corrupt_image} seeds from and
    {!Pmem.restore} copies object metadata from) but not keep or change
    it. Returns the number of crash points, excluding exit. *)

val explore :
  ?config:Config.t ->
  ?entry:string ->
  ?args:int list ->
  ?bound:int ->
  ?seed:int ->
  ?oracle:oracle ->
  Nvmir.Prog.t ->
  report
(** Explore every crash point plus {!Exit} in one interpreted run: each
    point is judged on the live heap when its event fires. *)

val test :
  ?config:Config.t ->
  ?entry:string ->
  ?args:int list ->
  ?bound:int ->
  ?seed:int ->
  invariant:((Pmem.addr -> Value.t) -> (unit, string) result) ->
  Nvmir.Prog.t ->
  report
(** [explore] with [oracle = Invariant invariant]. Because the empty
    persisted-subset is always enumerated, any violation {!Crash.test}
    reports with the same invariant is also found here. *)

val consistent : report -> bool
val pruning_ratio : report -> float
(** [1 - distinct/enumerated]; 0 when nothing was enumerated. *)

val violation_points : report -> int list
(** Crash points (excluding exit) with at least one witness, sorted. *)

val first_witness : report -> witness option

val pp_task : task Fmt.t
val pp_line : (int * int) Fmt.t
val pp_witness : witness Fmt.t
val pp_report : report Fmt.t
