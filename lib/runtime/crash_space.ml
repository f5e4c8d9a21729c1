(* Crash-image state-space exploration.

   The prefix oracle in [Crash] injects a crash after the k-th
   persistent-memory event and inspects ONE durable image per point: the
   state in which nothing in flight persisted. Real hardware is less
   kind — at a crash, ANY subset of the cache lines still in flight
   (Dirty, or flushed but not yet fenced) may have reached NVM, decided
   by eviction and write-back completion order rather than by the
   program. The deep write-back reorderings that make persistency bugs
   "deep" live exactly in those other images, which is why enumerating
   reachable post-crash images is the standard ground-truth oracle for
   crash-consistency detectors (WITCHER, PMRace).

   The program runs once. Its listener stops at every crash point (and
   at program exit, where still-volatile lines are simply lost), reads
   the live heap and lets the run continue; at each point this module:

   - takes the candidate lines from [Pmem.inflight_lines];
   - materializes each persisted-subset via [Pmem.materialize], with
     open transactions rolled back;
   - prunes by a persistence-equivalence digest — many subsets collapse
     to the same durable state (flushing clean data, overlapping lines),
     and the pruning ratio is reported;
   - enumerates exhaustively when 2^candidates fits the [bound], and
     otherwise draws a deterministic sample that always contains the
     empty and full subsets, so the prefix image is never lost and
     corpus-wide sweeps stay tractable.

   Consistency of an image is judged by an [oracle]: a user invariant
   over the materialized heap, or the built-in [Sequential] oracle that
   accepts an image iff it equals some program-order prefix of the
   recorded write sequence (the states strict persistency allows) and,
   at exit, iff no write is left volatile. The prefix check replays the
   write sequence once per distinct image, counting the slots that still
   differ, so judging an image is linear in writes plus slots. Because
   the empty subset is always explored, every violation the prefix
   oracle reports is also found here — the differential test suite
   checks that inclusion. *)

type oracle =
  | Sequential
  | Invariant of ((Pmem.addr -> Value.t) -> (unit, string) result)

type task = Point of int | Exit

type witness = {
  w_task : task;
  w_persisted : (int * int) list; (* the lines that reached NVM *)
  w_detail : string;
}

type point_result = {
  task : task;
  candidate_lines : int;
  subsets_enumerated : int;
  distinct_images : int;
  sampled : bool; (* true when the subset space exceeded the bound *)
  witnesses : witness list; (* one per distinct inconsistent image *)
}

type report = {
  points : point_result list;
  crash_points : int; (* event-injection points, excluding exit *)
  images_enumerated : int;
  images_distinct : int;
  inconsistent : int;
  witnesses : witness list; (* all, in point order *)
}

let default_bound = 256
let count_points = Crash.count_events

let m_runs =
  Obs.Metrics.counter "crash.interp_runs"
    ~desc:
      "interpreter runs started to enumerate crash images (explorer and \
       recovery tier)"

(* One interpreted run. [visit (Point k) pmem rev_writes] fires at the
   k-th persistent event, inside its listener notification: after the
   event's state change and before [Pmem.write]'s spontaneous eviction,
   which is the state a crash injected there leaves. [visit Exit] fires
   once the run returns. [rev_writes] is the persistent write sequence
   so far, newest first, for the Sequential oracle. Visitors only read
   [pmem], so the run goes on exactly as it would uninterrupted. Returns
   the number of points. *)
let run ?config ?entry ?args prog visit =
  let pmem = Pmem.create ?config () in
  let writes = ref [] in
  let n = ref 0 in
  let bump _loc =
    incr n;
    visit (Point !n) pmem !writes
  in
  let listener =
    {
      Pmem.null_listener with
      Pmem.on_write =
        (fun a loc ->
          (* the cached value at notification time is the written value *)
          writes := (a, Pmem.cached_value pmem a) :: !writes;
          bump loc);
      on_flush =
        (fun ~obj_id:_ ~first_slot:_ ~nslots:_ ~dirty:_ loc -> bump loc);
      on_fence = bump;
      on_tx_begin = bump;
      on_tx_end = bump;
    }
  in
  Pmem.add_listener pmem listener;
  if Obs.enabled () then Obs.Metrics.incr m_runs;
  ignore (Interp.run ?entry ?args (Interp.create ~pmem prog));
  visit Exit pmem !writes;
  !n

(* Persistence-equivalence digest: an injective encoding of the durable
   image (one tag per value constructor, fixed-width integers), so
   images are compared (and pruned) by exact state, not by the subset
   that produced them. *)
let digest (img : (int, Value.t array) Hashtbl.t) =
  let ids = Hashtbl.fold (fun k _ a -> k :: a) img [] |> List.sort Int.compare in
  let b = Buffer.create 128 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  List.iter
    (fun id ->
      Buffer.add_char b 'o';
      int id;
      Array.iter
        (function
          | Value.Vnull -> Buffer.add_char b 'n'
          | Value.Vbool false -> Buffer.add_char b 'f'
          | Value.Vbool true -> Buffer.add_char b 't'
          | Value.Vint n ->
            Buffer.add_char b 'i';
            int n
          | Value.Vref { obj; off } ->
            Buffer.add_char b 'r';
            int obj;
            int off)
        (Hashtbl.find img id))
    ids;
  Buffer.contents b

(* Does [img] equal some program-order prefix of the write sequence,
   replayed over an initially-null image of its objects? Those are the
   durable states a strictly-persistent execution can expose. One
   replay keeps the number of slots where the replayed state differs
   from [img]; the image matches when it reaches zero. *)
let matches_prefix writes img =
  let pairs = Hashtbl.create (Hashtbl.length img) in
  let diff = ref 0 in
  Hashtbl.iter
    (fun id want ->
      Hashtbl.replace pairs id (Array.make (Array.length want) Value.Vnull, want);
      Array.iter (fun v -> if not (Value.equal v Value.Vnull) then incr diff) want)
    img;
  let step ({ Pmem.obj_id; slot }, v) =
    match Hashtbl.find_opt pairs obj_id with
    | Some (cur, want) ->
      let was = Value.equal cur.(slot) want.(slot)
      and now = Value.equal v want.(slot) in
      cur.(slot) <- v;
      if was && not now then incr diff
      else if now && not was then decr diff
    | None -> ()
  in
  let rec replay = function
    | _ when !diff = 0 -> true
    | [] -> false
    | w :: ws ->
      step w;
      replay ws
  in
  replay writes

(* Subsets of [ncand] candidate lines as bool arrays: exhaustive while
   2^ncand fits the bound, otherwise a deterministic LCG sample that
   always includes the empty and full subsets. *)
let enumerate ~bound ~seed ncand =
  if ncand = 0 then ([ [||] ], false)
  else if ncand <= 20 && 1 lsl ncand <= bound then
    ( List.init (1 lsl ncand) (fun mask ->
          Array.init ncand (fun i -> mask land (1 lsl i) <> 0)),
      false )
  else begin
    let state = ref ((seed land 0x3FFFFFFF) lor 1) in
    let bit () =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      (* the low bits of this LCG alternate; sample a middle bit *)
      (!state lsr 16) land 1 = 1
    in
    let n = max 1 bound in
    ( List.init n (fun i ->
          if i = 0 then Array.make ncand false
          else if i = 1 then Array.make ncand true
          else Array.init ncand (fun _ -> bit ())),
      true )
  end

(* Walk the persisted-subsets of [task]'s in-flight lines and call
   [f persist img digest] once per distinct durable image, in
   enumeration order. The result counts the walk; it has no
   witnesses. *)
let iter_distinct ~bound ~seed task pmem f : point_result =
  let cand = Array.of_list (Pmem.inflight_lines pmem) in
  let ncand = Array.length cand in
  let seed = seed lxor (match task with Point k -> k * 7919 | Exit -> 104729) in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun sub ->
      let persist = ref [] in
      Array.iteri (fun i c -> if sub.(i) then persist := c :: !persist) cand;
      let persist = List.rev !persist in
      let img = Pmem.materialize pmem ~persist in
      let dg = digest img in
      if not (Hashtbl.mem seen dg) then begin
        Hashtbl.replace seen dg ();
        f persist img dg
      end)
    subs;
  {
    task;
    candidate_lines = ncand;
    subsets_enumerated = List.length subs;
    distinct_images = Hashtbl.length seen;
    sampled;
    witnesses = [];
  }

let m_enumerated =
  Obs.Metrics.counter "crash.images_enumerated"
    ~desc:"write-back subsets enumerated across crash points"

let m_pruned =
  Obs.Metrics.counter "crash.images_pruned"
    ~desc:"enumerated subsets collapsed by persistence-equivalence pruning"

let m_sampled =
  Obs.Metrics.counter "crash.points_sampled"
    ~desc:"crash points whose subset space was sampled, not exhaustive"

let m_points =
  Obs.Metrics.counter "crash.points_explored" ~desc:"crash points explored"

(* Judge every distinct image of one crash point against [oracle]. *)
let judge ~bound ~seed ~oracle task pmem rev_writes : point_result =
  Obs.Span.with_ ~name:"crash-point" (fun () ->
  let writes = lazy (List.rev rev_writes) in
  (* the exit reference: nothing in flight is lost *)
  let complete =
    lazy (digest (Pmem.materialize pmem ~persist:(Pmem.inflight_lines pmem)))
  in
  let witnesses = ref [] in
  let p =
    iter_distinct ~bound ~seed task pmem (fun persist img dg ->
        let verdict =
          match oracle with
          | Invariant f ->
            f (fun { Pmem.obj_id; slot } ->
                match Hashtbl.find_opt img obj_id with
                | Some arr when slot >= 0 && slot < Array.length arr ->
                  arr.(slot)
                | _ -> Value.Vnull)
          | Sequential -> (
            match task with
            | Point _ ->
              if matches_prefix (Lazy.force writes) img then Ok ()
              else
                Error
                  "durable image matches no program-order prefix of the \
                   write sequence"
            | Exit ->
              if String.equal dg (Lazy.force complete) then Ok ()
              else Error "writes still volatile at program exit are lost")
        in
        match verdict with
        | Ok () -> ()
        | Error d ->
          witnesses :=
            { w_task = task; w_persisted = persist; w_detail = d }
            :: !witnesses)
  in
  if Obs.enabled () then begin
    Obs.Metrics.incr m_points;
    Obs.Metrics.add m_enumerated p.subsets_enumerated;
    Obs.Metrics.add m_pruned (p.subsets_enumerated - p.distinct_images);
    if p.sampled then Obs.Metrics.incr m_sampled
  end;
  { p with witnesses = List.rev !witnesses })

let summarize ~crash_points (points : point_result list) : report =
  let images_enumerated =
    List.fold_left (fun a p -> a + p.subsets_enumerated) 0 points
  in
  let images_distinct =
    List.fold_left (fun a p -> a + p.distinct_images) 0 points
  in
  let witnesses = List.concat_map (fun (p : point_result) -> p.witnesses) points in
  {
    points;
    crash_points;
    images_enumerated;
    images_distinct;
    inconsistent = List.length witnesses;
    witnesses;
  }

let explore ?config ?entry ?args ?(bound = default_bound) ?(seed = 1)
    ?(oracle = Sequential) prog : report =
  let points = ref [] in
  let crash_points =
    run ?config ?entry ?args prog (fun task pmem rev_writes ->
        points := judge ~bound ~seed ~oracle task pmem rev_writes :: !points)
  in
  summarize ~crash_points (List.rev !points)

(* ------------------------------------------------------------------ *)
(* Image enumeration for the recovery tier: the same run and subset walk
   as [explore], handing each point's crashed heap and distinct
   materialized images to the caller instead of judging them. The
   recovery executor corrupts and restores each image separately. *)

type crash_image = {
  ci_task : task;
  ci_persisted : (int * int) list;
  ci_image : (int, Value.t array) Hashtbl.t;
}

let iter_images ?config ?entry ?args ?(bound = default_bound) ?(seed = 1) f
    prog =
  run ?config ?entry ?args prog (fun task pmem _writes ->
      let images = ref [] in
      let p =
        iter_distinct ~bound ~seed task pmem (fun persist img _ ->
            images :=
              { ci_task = task; ci_persisted = persist; ci_image = img }
              :: !images)
      in
      f pmem (List.rev !images) p.sampled)

let test ?config ?entry ?args ?bound ?seed ~invariant prog =
  explore ?config ?entry ?args ?bound ?seed ~oracle:(Invariant invariant) prog

let consistent r = r.inconsistent = 0

let pruning_ratio r =
  if r.images_enumerated = 0 then 0.
  else 1. -. (float_of_int r.images_distinct /. float_of_int r.images_enumerated)

let violation_points r =
  List.filter_map
    (fun p ->
      match (p.task, p.witnesses) with
      | Point k, _ :: _ -> Some k
      | _ -> None)
    r.points
  |> List.sort_uniq Int.compare

let first_witness r = match r.witnesses with [] -> None | w :: _ -> Some w

(* ------------------------------------------------------------------ *)
(* Printers *)

let pp_task ppf = function
  | Point k -> Fmt.pf ppf "event %d" k
  | Exit -> Fmt.string ppf "exit"

let pp_line ppf (o, l) = Fmt.pf ppf "obj%d.L%d" o l

let pp_witness ppf w =
  Fmt.pf ppf "at %a: persisted {%a}: %s" pp_task w.w_task
    Fmt.(list ~sep:(any ", ") pp_line)
    w.w_persisted w.w_detail

let max_printed_witnesses = 10

let pp_report ppf r =
  let shown, hidden =
    let rec take n = function
      | w :: ws when n > 0 ->
        let s, h = take (n - 1) ws in
        (w :: s, h)
      | ws -> ([], List.length ws)
    in
    take max_printed_witnesses r.witnesses
  in
  Fmt.pf ppf
    "@[<v>crash points: %d (+ exit); images: %d enumerated, %d distinct \
     (pruning %.0f%%); inconsistent: %d%a%t@]"
    r.crash_points r.images_enumerated r.images_distinct
    (100. *. pruning_ratio r)
    r.inconsistent
    Fmt.(list ~sep:nop (fun ppf w -> Fmt.pf ppf "@   %a" pp_witness w))
    shown
    (fun ppf -> if hidden > 0 then Fmt.pf ppf "@   ... and %d more" hidden)
