(* Reference crash-image explorer: the re-execution explorer that
   [Runtime.Crash_space] replaced, kept verbatim as a test-local oracle.
   Every crash point re-runs the program from the start up to the k-th
   persistent event and raises there; images are pruned by an [Fmt]
   rendering and the Sequential oracle looks them up among the digests
   of every program-order prefix. test_crash_oracle.ml checks that the
   single-run explorer reports the same points, images and witnesses,
   and that the recovery tier sees the same images. *)

open Runtime
open Crash_space

(* Re-execute up to [task] (a crash point, or completion for [Exit]),
   recording the persistent write sequence for the Sequential oracle. *)
let run_to ?config ?entry ?args ~task prog =
  let pmem = Pmem.create ?config () in
  let writes = ref [] in
  let n = ref 0 in
  let at = match task with Point k -> k | Exit -> max_int in
  let bump _loc =
    incr n;
    if !n = at then raise Crash.Crashed
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
  let interp = Interp.create ~pmem prog in
  let crashed =
    try
      ignore (Interp.run ?entry ?args interp);
      false
    with Crash.Crashed -> true
  in
  (pmem, List.rev !writes, crashed)

(* Persistence-equivalence digest: an injective rendering of the durable
   image, so images are compared (and pruned) by exact state, not by the
   subset that produced them. *)
let digest (img : (int, Value.t array) Hashtbl.t) =
  let ids = Hashtbl.fold (fun k _ a -> k :: a) img [] |> List.sort Int.compare in
  let b = Buffer.create 128 in
  List.iter
    (fun id ->
      Buffer.add_string b (Fmt.str "o%d:" id);
      Array.iter
        (fun v -> Buffer.add_string b (Fmt.str "%a;" Value.pp v))
        (Hashtbl.find img id))
    ids;
  Buffer.contents b

(* The digests of every program-order prefix of the write sequence,
   replayed over an initially-zero image of the objects live at the
   crash — the durable states a strictly-persistent execution can
   expose. *)
let prefix_digests pmem writes =
  let img = Hashtbl.create 8 in
  List.iter
    (fun id ->
      if Pmem.is_persistent pmem id then
        Hashtbl.replace img id (Array.make (Pmem.obj_size pmem id) Value.Vnull))
    (Pmem.live_objects pmem);
  let set = Hashtbl.create (List.length writes + 1) in
  Hashtbl.replace set (digest img) ();
  List.iter
    (fun ({ Pmem.obj_id; slot }, v) ->
      match Hashtbl.find_opt img obj_id with
      | Some arr ->
        arr.(slot) <- v;
        Hashtbl.replace set (digest img) ()
      | None -> ())
    writes;
  set

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

let explore_task ?config ?entry ?args ?(bound = default_bound) ?(seed = 1)
    ?(oracle = Sequential) ~task prog : point_result =
  let pmem, writes, _crashed = run_to ?config ?entry ?args ~task prog in
  let candidates = Pmem.inflight_lines pmem in
  let cand = Array.of_list candidates in
  let ncand = Array.length cand in
  let seed = seed lxor (match task with Point k -> k * 7919 | Exit -> 104729) in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let prefixes = lazy (prefix_digests pmem writes) in
  (* the exit reference: nothing in flight is lost *)
  let complete = lazy (digest (Pmem.materialize pmem ~persist:candidates)) in
  let seen = Hashtbl.create 64 in
  let witnesses = ref [] in
  let enumerated = ref 0 in
  List.iter
    (fun sub ->
      incr enumerated;
      let persist = ref [] in
      Array.iteri (fun i c -> if sub.(i) then persist := c :: !persist) cand;
      let persist = List.rev !persist in
      let img = Pmem.materialize pmem ~persist in
      let dg = digest img in
      if not (Hashtbl.mem seen dg) then begin
        Hashtbl.replace seen dg ();
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
              if Hashtbl.mem (Lazy.force prefixes) dg then Ok ()
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
            :: !witnesses
      end)
    subs;
  {
    task;
    candidate_lines = ncand;
    subsets_enumerated = !enumerated;
    distinct_images = Hashtbl.length seen;
    sampled;
    witnesses = List.rev !witnesses;
  }

let crash_images ?config ?entry ?args ?(bound = default_bound) ?(seed = 1)
    ~task prog =
  let pmem, _writes, _crashed = run_to ?config ?entry ?args ~task prog in
  let candidates = Pmem.inflight_lines pmem in
  let cand = Array.of_list candidates in
  let ncand = Array.length cand in
  let seed = seed lxor (match task with Point k -> k * 7919 | Exit -> 104729) in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let seen = Hashtbl.create 64 in
  let images = ref [] in
  List.iter
    (fun sub ->
      let persist = ref [] in
      Array.iteri (fun i c -> if sub.(i) then persist := c :: !persist) cand;
      let persist = List.rev !persist in
      let img = Pmem.materialize pmem ~persist in
      let dg = digest img in
      if not (Hashtbl.mem seen dg) then begin
        Hashtbl.replace seen dg ();
        images :=
          { ci_task = task; ci_persisted = persist; ci_image = img }
          :: !images
      end)
    subs;
  (pmem, List.rev !images, sampled)

(* Every crash point plus exit, each re-executed on its own. *)
let tasks ?config ?entry ?args prog =
  let total = count_points ?config ?entry ?args prog in
  (total, List.init total (fun i -> Point (i + 1)) @ [ Exit ])

let explore ?config ?entry ?args ?bound ?seed ?oracle prog =
  let total, tasks = tasks ?config ?entry ?args prog in
  ( total,
    List.map
      (fun task -> explore_task ?config ?entry ?args ?bound ?seed ?oracle ~task prog)
      tasks )
