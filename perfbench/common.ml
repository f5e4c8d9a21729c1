(* Shared vocabulary of the benchmark: what an operation is, how its
   verdict is scored, and the per-layer counters the traced run fills. *)

(* How one operation ended, scored against ground truth that does not
   come from the checker. [Failed] is a raise or an exhausted budget;
   [Wrong] is a verdict that differs from the reference. *)
type outcome = Pass | Wrong of string | Failed of string

type op = {
  label : string;
  submit : unit -> unit -> outcome;
      (** The operation: submit it and wait for the verdict, which is
          timed; the returned closure scores the verdict, untimed. Layer
          calls inside are wrapped in [Obs.Span.with_], which costs one
          atomic load while tracing is off. *)
  reference : unit -> string option;
      (** Traced run only, outside the operation's span: extra calls
          whose spans feed per-layer metrics (the static replica check,
          a plain interpreter run). [Some msg] when the replica disagrees
          with [Analysis.Checker.check]. *)
}

let no_reference () = None

(* What a workload's set-up hands the harness: a fresh, endless stream
   of operations per call, how many operations one pass over all of its
   inputs takes, and the known defects set-up ran into (see
   [known_defect]). *)
type inputs = { pass : int; stream : unit -> op Seq.t; defects : string list }

let cycle ops =
  { pass = Array.length ops; stream = (fun () -> Seq.cycle (Array.to_seq ops)); defects = [] }

let failed e = Failed (Printexc.to_string e)

(* Submit [op]; a raise becomes a failed outcome. *)
let submit op = match op.submit () with score -> score | exception e -> fun () -> failed e

let outcome score = match score () with o -> o | exception e -> failed e

(* Operations that fail on a known defect of the program under test,
   by label. Such an operation runs once in set-up, where its failure is
   reported, and stays out of the measured phase: a run then scores only
   operations that can succeed, and its failure count stays 0 rather
   than growing with the time the run is given. *)
let known_defects =
  [
    (* Crash-exploring the fixed variant raises [Runtime_error
       "journal_driver_all expects 0 argument(s), got 1"]: the corpus
       gives the entry one argument ([entry_args = [0]]), which the fixed
       variant's zero-arity driver does not take. *)
    "crash-explore pmfs_journal/fixed";
  ]

(* Split [ops] into the measured ones and the known-defect ones; run the
   latter once and return the failures they reproduce. *)
let known_defect ops =
  let defective, measured = List.partition (fun op -> List.mem op.label known_defects) ops in
  let reproduced =
    List.filter_map
      (fun op ->
        match outcome (submit op) with
        | Pass -> None
        | Wrong m | Failed m -> Some (op.label ^ ": " ^ m))
      defective
  in
  (measured, reproduced)

let span name f = Obs.Span.with_ ~name f

(* Set by the traced run before set-up. Operations are then built for
   the per-layer split (synth-deep checks through the replica, in the
   untraced pass too, so that the tracing overhead compares one code
   path), and set-up traces its [Inject.Mutation.mutate] calls, and only
   those. *)
let layered = ref false

let mutate f =
  if not !layered then f ()
  else begin
    Obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> span "inject.mutate" f)
  end

(* Per-layer counters, accumulated only while tracing. [add] sums over
   the traced phase; [peak] keeps a maximum. The replica calls them from
   pool domains too. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let peaks : (string, float) Hashtbl.t = Hashtbl.create 16
let counters_lock = Mutex.create ()

let add name v =
  if Obs.enabled () then
    Mutex.protect counters_lock (fun () ->
        Hashtbl.replace sums name
          (v +. Option.value ~default:0. (Hashtbl.find_opt sums name)))

let peak name v =
  if Obs.enabled () then
    Mutex.protect counters_lock (fun () ->
        Hashtbl.replace peaks name
          (Float.max v (Option.value ~default:0. (Hashtbl.find_opt peaks name))))

let sum name = Option.value ~default:0. (Hashtbl.find_opt sums name)
let peak_of name = Option.value ~default:0. (Hashtbl.find_opt peaks name)

(* A splitmix-style mixer: derives independent per-purpose streams from
   the workload seed, so changing one workload's input draw never shifts
   another's. *)
let mix seed salt =
  let x = ref ((seed * 0x9E3779B1) lxor (salt * 0x85EBCA77)) in
  x := (!x lxor (!x lsr 16)) * 0x7FEB352D;
  x := (!x lxor (!x lsr 15)) * 0x846CA68B;
  (!x lxor (!x lsr 16)) land 0x3FFFFFFF

let rng seed salt = Random.State.make [| mix seed salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [ops], grouped by size or kind, reordered so that every prefix of a
   pass holds a proportional share of each group (bit-reversed index
   order), then rotated by a seeded offset. A run that ends inside a
   pass then still measures the pass's mix, not a random lump of its
   largest inputs. *)
let balanced_order ~seed ops =
  let n = Array.length ops in
  let bits = ref 0 in
  while 1 lsl !bits < n do incr bits done;
  let rev i =
    let r = ref 0 in
    for b = 0 to !bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (!bits - 1 - b))
    done;
    !r
  in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (rev a) (rev b)) idx;
  let k = if n = 0 then 0 else mix seed 3 mod n in
  Array.init n (fun i -> ops.(idx.((i + k) mod n)))

let render_warnings ws =
  List.map (fun w -> Fmt.str "%a" Analysis.Warning.pp w) ws

(* Inputs are matched to size targets rather than drawn at random, so
   every seed yields a workload of the same shape and cost. A candidate
   is a seeded generator seed; for it, binary-search the function count
   (a Synth program with one more worker is the same program plus that
   worker, so [measure] grows with [nfuncs]) for the smallest program
   reaching [target * (1 - tol)]. It lands if that program is also within
   [target * (1 + tol)] and passes [accept]. Returns the first [count]
   programs that land. Whether a candidate lands is a matter of luck, so
   [scan] candidates are searched whether or not [count] landed earlier
   (more only when too few did): set-up then does the same work for
   every seed. *)
let synth_near ~seed ~salt ~tol ~nfuncs:(lo, hi) ?(accept = fun _ -> true)
    ?(count = 1) ?(scan = 1) ~measure target =
  let gen cfg = fst (Corpus.Synth.generate cfg) in
  let rec go j landed found =
    if found >= count && j >= scan then List.rev landed
    else begin
      if j >= scan + 1_000 then Fmt.failwith "no Synth program near size %g" target;
      let cfg n = { Corpus.Synth.default_config with seed = mix seed (salt + j); nfuncs = n } in
      let size n = measure (gen (cfg n)) in
      let floor = target *. (1. -. tol) in
      let rec search lo hi =
        (* smallest n in [lo, hi] with size n >= floor, or hi + 1 *)
        if lo > hi then lo
        else
          let mid = (lo + hi) / 2 in
          if size mid >= floor then search lo (mid - 1) else search (mid + 1) hi
      in
      let n = search lo hi in
      if n <= hi && size n <= target *. (1. +. tol) && found < count && accept (gen (cfg n))
      then go (j + 1) (cfg n :: landed) (found + 1)
      else go (j + 1) landed found
    end
  in
  go 0 [] 0

let log_ladder ~lo ~hi k =
  List.init k (fun i -> lo *. ((hi /. lo) ** (float i /. float (k - 1))))
