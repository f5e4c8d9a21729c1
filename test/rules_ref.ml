(* Reference rules: the direct list-scan statements of the seven static
   rules of Tables 4 and 5, one scan of the whole path per event, so
   quadratic in path length, over a direct recursive scoping of the
   whole path. [Analysis.Rules] evaluates each rule as one bucketed
   pass, all seven stepped together over path prefixes the walk shares;
   test_rule_oracle.ml checks, path by path, that both emit the same
   warnings in the same order, and that [Analysis.Checker.check] equals
   [check] below, which checks every path on its own. *)

open Analysis
open Rules

(* ------------------------------------------------------------------ *)
(* Reference scoping: a direct recursion over the whole trace,
   independent of the one-event-at-a-time scoping that
   [Rules.scope_trace] and the rule machine share. *)

let scope_trace (trace : Trace.t) : scoped list =
  let tx_counter = ref 0 in
  let epoch_counter = ref 0 in
  let rec go idx tx_stack epoch unit_ strand = function
    | [] -> []
    | (e : Event.t) :: rest ->
      let mk tx_stack epoch strand =
        {
          ev = e;
          idx;
          tx_depth = List.length tx_stack;
          tx_id = (match tx_stack with [] -> -1 | t :: _ -> t);
          tx_stack;
          epoch;
          unit_;
          strand;
        }
      in
      (match e.kind with
      | Event.Tx_begin ->
        let id = !tx_counter in
        incr tx_counter;
        let stack = id :: tx_stack in
        mk stack epoch strand :: go (idx + 1) stack epoch unit_ strand rest
      | Event.Tx_end ->
        let popped = match tx_stack with [] -> [] | _ :: t -> t in
        (* the Tx_end event itself belongs to the transaction it closes *)
        mk tx_stack epoch strand :: go (idx + 1) popped epoch unit_ strand rest
      | Event.Epoch_begin ->
        let id = !epoch_counter in
        incr epoch_counter;
        mk tx_stack id strand :: go (idx + 1) tx_stack id unit_ strand rest
      | Event.Epoch_end ->
        mk tx_stack epoch strand :: go (idx + 1) tx_stack (-1) unit_ strand rest
      | Event.Strand_begin n ->
        mk tx_stack epoch n :: go (idx + 1) tx_stack epoch unit_ n rest
      | Event.Strand_end _ ->
        mk tx_stack epoch strand :: go (idx + 1) tx_stack epoch unit_ (-1) rest
      | Event.Fence ->
        mk tx_stack epoch strand
        :: go (idx + 1) tx_stack epoch (unit_ + 1) strand rest
      | Event.Write _ | Event.Flush _ | Event.Log _ | Event.Call_mark _
      | Event.Ret_mark _ ->
        mk tx_stack epoch strand :: go (idx + 1) tx_stack epoch unit_ strand rest)
  in
  go 0 [] (-1) 0 (-1) trace

let has_marked_epochs scoped =
  List.exists
    (fun s -> match s.ev.Event.kind with Event.Epoch_begin -> true | _ -> false)
    scoped

let warn ?origin ctx rule (s : scoped) fmt =
  Fmt.kstr
    (fun message ->
      Warning.make ?origin ~rule ~model:ctx.model ~loc:s.ev.Event.loc
        ~fname:s.ev.Event.fname message)
    fmt

let field_count ctx node =
  let n = Dsa.Arena.canonical (Dsa.Dsg.arena ctx.dsg) node in
  match n.Dsa.Arena.ty with
  | Some (Nvmir.Ty.Named s) -> (
    match Nvmir.Ty.env_find ctx.tenv s with
    | Some sd -> Some (List.length sd.Nvmir.Ty.fields)
    | None -> None)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* V: Unflushed/unlogged write (strict and epoch rows of Table 4) *)

let check_unflushed_write ctx scoped =
  List.filter_map
    (fun s ->
      match s.ev.Event.kind with
      | Event.Write a ->
        (* a flush anywhere later on the path covers the write; the
           cross-epoch-deferral case (covered only by a later epoch's
           flush) is the multiple-writes-at-once rule's domain *)
        let covered_by_flush =
          List.exists
            (fun s' ->
              s'.idx > s.idx
              &&
              match s'.ev.Event.kind with
              | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
              | _ -> false)
            scoped
        in
        let covered_by_log =
          s.tx_id >= 0
          && List.exists
               (fun s' ->
                 List.mem s'.tx_id s.tx_stack
                 &&
                 match s'.ev.Event.kind with
                 | Event.Log b -> Dsa.Aaddr.contained_in a b
                 | _ -> false)
               scoped
        in
        if covered_by_flush || covered_by_log then None
        else
          Some
            (warn ctx Warning.Unflushed_write s
               "write to %a is never flushed or logged before it must be \
                durable"
               Dsa.Aaddr.pp a)
      | _ -> None)
    scoped

(* ------------------------------------------------------------------ *)
(* V: Multiple writes made durable at once *)

let check_multiple_writes_at_once ctx scoped =
  match ctx.model with
  | Model.Strict ->
    (* under strict persistency a fence must not batch the durability of
       updates to several distinct objects. (A multi-field update of one
       object drained by a single persist is the idiomatic atomic-object
       update and is not flagged; writes with no flush at all belong to
       the unflushed-write rule.) *)
    let rec scan pending ws fs acc =
      match pending with
      | [] -> List.rev acc
      | s :: rest -> (
        match s.ev.Event.kind with
        | Event.Write a when s.tx_depth = 0 -> scan rest ((s, a) :: ws) fs acc
        | Event.Flush (b, _) when s.tx_depth = 0 -> scan rest ws (b :: fs) acc
        | Event.Fence when s.tx_depth = 0 ->
          let durable =
            List.filter
              (fun (_, a) ->
                List.exists (fun b -> Dsa.Aaddr.contained_in a b) fs)
              ws
          in
          let objects =
            List.sort_uniq Int.compare
              (List.map (fun (_, (a : Dsa.Aaddr.t)) -> a.Dsa.Aaddr.node) durable)
          in
          let acc =
            if List.length objects >= 2 then
              warn ctx Warning.Multiple_writes_at_once s
                "updates to %d distinct persistent objects made durable by a \
                 single persist barrier; strict persistency requires one \
                 barrier per update"
                (List.length objects)
              :: acc
            else acc
          in
          scan rest [] [] acc
        | _ -> scan rest ws fs acc)
    in
    scan scoped [] [] []
  | Model.Epoch | Model.Strand ->
    (* a write of epoch E made durable only by a flush in a later epoch
       E' > E batches the durability of the two epochs together *)
    if not (has_marked_epochs scoped) then []
    else
      List.filter_map
        (fun s ->
          match s.ev.Event.kind with
          | Event.Write a when s.epoch >= 0 ->
            let flushed_in_own =
              List.exists
                (fun s' ->
                  s'.epoch = s.epoch && s'.idx > s.idx
                  &&
                  match s'.ev.Event.kind with
                  | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
                  | _ -> false)
                scoped
            in
            let late_flush =
              List.find_opt
                (fun s' ->
                  s'.epoch > s.epoch
                  &&
                  match s'.ev.Event.kind with
                  | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
                  | _ -> false)
                scoped
            in
            if (not flushed_in_own) && s.tx_id < 0 then
              match late_flush with
              | Some f ->
                Some
                  (warn ctx Warning.Multiple_writes_at_once f
                     "flush makes the epoch-%d write to %a durable together \
                      with epoch-%d data; epoch persistency requires it to \
                      persist at its own epoch boundary"
                     s.epoch Dsa.Aaddr.pp a f.epoch)
              | None -> None
            else None
          | _ -> None)
        scoped

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers *)

let check_missing_persist_barrier ctx scoped =
  match ctx.model with
  | Model.Strict ->
    (* after a flush, a fence must occur before new persistent work *)
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Flush (a, _) ->
          let rec forward = function
            | [] -> None (* trace ends: nothing left to order *)
            | s' :: rest when s'.idx <= s.idx -> forward rest
            | s' :: rest -> (
              match s'.ev.Event.kind with
              | Event.Fence -> None
              | Event.Flush _ -> forward rest (* batched flush: V1's domain *)
              | Event.Write _ | Event.Log _ | Event.Tx_begin ->
                Some
                  (warn ctx Warning.Missing_persist_barrier s
                     "flush of %a is not followed by a persist barrier \
                      before the next persistent operation (%a at %a)"
                     Dsa.Aaddr.pp a Event.pp_kind s'.ev.Event.kind
                     Nvmir.Loc.pp s'.ev.Event.loc)
              | _ -> forward rest)
          in
          forward scoped
        | _ -> None)
      scoped
  | Model.Epoch | Model.Strand ->
    (* a persist barrier must close every non-empty epoch *)
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Epoch_end ->
          let in_epoch =
            List.filter
              (fun s' -> s'.epoch = s.epoch && s'.idx < s.idx)
              scoped
          in
          (* only epochs that issued flushes need a closing barrier; an
             epoch whose writes were never flushed at all is the
             unflushed-write / deferred-durability rules' domain *)
          let has_flush =
            List.exists
              (fun s' ->
                match s'.ev.Event.kind with
                | Event.Flush _ -> true
                | _ -> false)
              in_epoch
          in
          let last_durability_op =
            List.fold_left
              (fun acc s' ->
                match s'.ev.Event.kind with
                | Event.Write _ | Event.Flush _ | Event.Fence -> Some s'
                | _ -> acc)
              None in_epoch
          in
          let closed =
            match last_durability_op with
            | Some { ev = { Event.kind = Event.Fence; _ }; _ } -> true
            | Some _ | None -> false
          in
          if has_flush && not closed then
            Some
              (warn ctx Warning.Missing_persist_barrier s
                 "epoch ends without a persist barrier; stores of the next \
                  epoch may persist before this epoch's stores")
          else None
        | _ -> None)
      scoped

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers in nested transactions *)

let check_missing_barrier_nested_tx ctx scoped =
  match ctx.model with
  | Model.Strict -> []
  | Model.Epoch | Model.Strand ->
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Tx_end when s.tx_depth >= 2 ->
          let in_tx =
            List.filter
              (fun s' -> s'.tx_id = s.tx_id && s'.idx < s.idx)
              scoped
          in
          let has_persist_work =
            List.exists
              (fun s' ->
                match s'.ev.Event.kind with
                | Event.Flush _ -> true
                | _ -> false)
              in_tx
          in
          let last_durability_op =
            List.fold_left
              (fun acc s' ->
                match s'.ev.Event.kind with
                | Event.Write _ | Event.Flush _ | Event.Fence -> Some s'
                | _ -> acc)
              None in_tx
          in
          let closed =
            match last_durability_op with
            | Some { ev = { Event.kind = Event.Fence; _ }; _ } -> true
            | Some _ | None -> false
          in
          if has_persist_work && not closed then
            Some
              (warn ctx Warning.Missing_barrier_nested_tx s
                 "inner transaction ends without a persist barrier; its \
                  writes are not guaranteed durable before the outer \
                  transaction continues")
          else None
        | _ -> None)
      scoped

(* ------------------------------------------------------------------ *)
(* V: Mismatch between program semantics and model implementation *)

(* Consecutive persist units (epochs under the epoch model, fence-
   delimited units otherwise) writing to different parts of the same
   persistent object indicate that a logically-atomic update was split
   across durability boundaries — the Figure 1 hashmap pattern. Updates
   under transaction protection are exempt (the transaction restores
   atomicity). *)
let check_semantic_mismatch ctx scoped =
  let marked =
    match ctx.model with
    | Model.Epoch | Model.Strand -> has_marked_epochs scoped
    | Model.Strict -> false
  in
  let unit_of s = if marked then s.epoch else s.unit_ in
  let writes =
    List.filter_map
      (fun s ->
        match s.ev.Event.kind with
        | Event.Write a when s.tx_depth = 0 && (not marked) || (marked && s.epoch >= 0 && s.tx_depth = 0) ->
          Some (s, a)
        | _ -> None)
      scoped
  in
  (* the earlier write must have been persisted within its own unit —
     otherwise the pair is a deferred-durability case handled by the
     multiple-writes-at-once rule *)
  let flushed_in_unit (s1, a1) =
    List.exists
      (fun s' ->
        s'.idx > s1.idx
        && unit_of s' = unit_of s1
        &&
        match s'.ev.Event.kind with
        | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a1 b
        | _ -> false)
      scoped
  in
  (* repeated-protocol exemption: when the later unit also re-writes the
     earlier unit's address, the units are iterations of one update
     protocol (log appends, queue publishes in a loop), not a split
     atomic update *)
  let unit_rewrites u a1 =
    List.exists
      (fun (s, a) -> unit_of s = u && Dsa.Aaddr.may_overlap a a1)
      writes
  in
  List.filter_map
    (fun (s2, a2) ->
      let u2 = unit_of s2 in
      let prior =
        List.find_opt
          (fun (s1, a1) ->
            let u1 = unit_of s1 in
            u1 >= 0 && u2 >= 0 && u1 + 1 = u2 && s1.idx < s2.idx
            && Dsa.Aaddr.same_object a1 a2
            && (not (Dsa.Aaddr.may_overlap a1 a2))
            && flushed_in_unit (s1, a1)
            && not (unit_rewrites u2 a1))
          writes
      in
      match prior with
      | Some (s1, a1) ->
        Some
          (warn ctx Warning.Semantic_mismatch s2
             "consecutive persist units update different parts of the same \
              persistent object (%a here, %a at %a); a crash between them \
              leaves the object half-updated"
             Dsa.Aaddr.pp a2 Dsa.Aaddr.pp a1 Nvmir.Loc.pp s1.ev.Event.loc)
      | None -> None)
    writes

(* ------------------------------------------------------------------ *)
(* V: Data dependencies between strands (static over-approximation) *)

type strand_region = {
  sr_id : int;
  sr_begin_unit : int; (* fence-delimited unit at strand begin *)
  mutable sr_end_unit : int;
  mutable sr_writes : (scoped * Dsa.Aaddr.t) list;
}

(* Strand regions separated by a persist barrier are ordered; regions
   with no barrier between them may persist concurrently and must
   therefore touch disjoint addresses (Table 4, strand row). *)
let check_strand_dependence ctx scoped =
  match ctx.model with
  | Model.Strict | Model.Epoch -> []
  | Model.Strand ->
    let regions = ref [] in
    let open_region = ref None in
    List.iter
      (fun s ->
        match s.ev.Event.kind with
        | Event.Strand_begin n ->
          let r =
            {
              sr_id = n;
              sr_begin_unit = s.unit_;
              sr_end_unit = s.unit_;
              sr_writes = [];
            }
          in
          open_region := Some r;
          regions := r :: !regions
        | Event.Strand_end _ -> (
          match !open_region with
          | Some r ->
            r.sr_end_unit <- s.unit_;
            open_region := None
          | None -> ())
        | Event.Write a -> (
          match !open_region with
          | Some r -> r.sr_writes <- (s, a) :: r.sr_writes
          | None -> ())
        | _ -> ())
      scoped;
    let regions = List.rev !regions in
    let concurrent r1 r2 =
      r1.sr_id <> r2.sr_id
      && not (r2.sr_begin_unit > r1.sr_end_unit || r1.sr_begin_unit > r2.sr_end_unit)
    in
    let rec pairs = function
      | [] -> []
      | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
    in
    List.filter_map
      (fun (r1, r2) ->
        if not (concurrent r1 r2) then None
        else
          List.find_map
            (fun (s2, a2) ->
              List.find_map
                (fun (_, a1) ->
                  if Dsa.Aaddr.may_overlap a1 a2 then
                    Some
                      (warn ctx Warning.Strand_dependence s2
                         "strands %d and %d both write %a; dependent strands \
                          must not persist concurrently"
                         r1.sr_id r2.sr_id Dsa.Aaddr.pp a2)
                  else None)
                r1.sr_writes)
            r2.sr_writes)
      (pairs regions)

(* ------------------------------------------------------------------ *)
(* P: flush-coverage rules (Table 5), one stateful scan:
   - multiple flushes to a persistent object (redundant write-backs)
   - flush an unmodified object / unmodified fields
   - persist the same object multiple times in a transaction
   - durable transaction without persistent writes *)

type tx_state = {
  id : int;
  begin_event : scoped;
  mutable writes : int;
  mutable persisted : Dsa.Aaddr.t list; (* logged or flushed in this tx *)
}

let distinct_fields addrs =
  List.sort_uniq compare
    (List.filter_map (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field) addrs)

let check_flush_coverage ctx scoped =
  let warnings = ref [] in
  let push w = warnings := w :: !warnings in
  let dirty = ref [] in (* written, not yet flushed *)
  let clean = ref [] in (* flushed since last overlapping write *)
  let tx_stack = ref [] in
  let handle_redundant s (b : Dsa.Aaddr.t) ~covered =
    let clean_overlap =
      List.exists (fun f -> Dsa.Aaddr.may_overlap f b) !clean
    in
    if clean_overlap && covered = [] then begin
      let in_tx =
        match !tx_stack with
        | tx :: _ when List.exists (fun p -> Dsa.Aaddr.may_overlap p b) tx.persisted ->
          Some tx
        | _ -> None
      in
      match in_tx with
      | Some _ ->
        push
          (warn ctx Warning.Persist_same_object_in_tx s
             "%a is persisted again within the same transaction without an \
              intervening modification"
             Dsa.Aaddr.pp b);
        true
      | None ->
        push
          (warn ctx Warning.Multiple_flushes s
             "redundant write-back: %a was already flushed and not modified \
              since"
             Dsa.Aaddr.pp b);
        true
    end
    else false
  in
  List.iter
    (fun s ->
      match s.ev.Event.kind with
      | Event.Write a ->
        dirty := a :: !dirty;
        clean := List.filter (fun f -> not (Dsa.Aaddr.may_overlap f a)) !clean;
        List.iter (fun tx -> tx.writes <- tx.writes + 1) !tx_stack
      | Event.Log b -> (
        (match !tx_stack with
        | tx :: _ ->
          if List.exists (fun p -> Dsa.Aaddr.may_overlap p b) tx.persisted then
            push
              (warn ctx Warning.Persist_same_object_in_tx s
                 "%a is logged into the transaction more than once"
                 Dsa.Aaddr.pp b);
          tx.persisted <- b :: tx.persisted
        | [] -> ());
        (* logging a whole object whose fields are mostly untouched
           copies unmodified data into the undo log *)
        match (b.Dsa.Aaddr.field, field_count ctx b.Dsa.Aaddr.node) with
        | None, Some nfields when nfields > 1 -> (
          let later_writes =
            List.filter_map
              (fun s' ->
                match s'.ev.Event.kind with
                | Event.Write a
                  when s'.idx > s.idx
                       && List.mem s.tx_id s'.tx_stack
                       && Dsa.Aaddr.same_object a b -> Some a
                | _ -> None)
              scoped
          in
          let whole_obj_write =
            List.exists (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field = None) later_writes
          in
          let written = distinct_fields later_writes in
          match written with
          | [] -> ()
          | _ when whole_obj_write -> ()
          | _ when List.length written < nfields ->
            push
              (warn ctx Warning.Flush_unmodified s
                 "whole object logged but only %d of %d fields are modified \
                  in the transaction; unmodified fields are copied to the \
                  undo log"
                 (List.length written) nfields)
          | _ -> ())
        | _ -> ())
      | Event.Flush (b, origin) -> (
        let covered = List.filter (fun w -> Dsa.Aaddr.may_overlap w b) !dirty in
        let redundant = handle_redundant s b ~covered in
        (if (not redundant) && covered = [] then
           match origin with
           | Event.From_persist ->
             push
               (warn ctx Warning.Durable_tx_no_writes s
                  "durable operation persists %a but no persistent write \
                   precedes it on this path"
                  Dsa.Aaddr.pp b)
           | Event.Plain ->
             push
               (warn ctx Warning.Flush_unmodified s
                  "flush of %a without any preceding modification writes \
                   back unmodified data"
                  Dsa.Aaddr.pp b));
        (* whole-object flush covering only some written fields *)
        (if covered <> [] && b.Dsa.Aaddr.field = None then
           match field_count ctx b.Dsa.Aaddr.node with
           | Some nfields when nfields > 1 ->
             let whole_obj_write =
               List.exists (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field = None) covered
             in
             let written = distinct_fields covered in
             if (not whole_obj_write) && List.length written < nfields then
               push
                 (warn ctx Warning.Flush_unmodified s
                    "whole object flushed while only %d of %d fields were \
                     modified; unmodified fields are written back"
                    (List.length written) nfields)
           | Some _ | None -> ());
        (* record transaction-scoped persists *)
        (match !tx_stack with
        | tx :: _ -> tx.persisted <- b :: tx.persisted
        | [] -> ());
        clean := b :: !clean;
        dirty := List.filter (fun w -> not (Dsa.Aaddr.contained_in w b)) !dirty)
      | Event.Tx_begin ->
        tx_stack := { id = s.tx_id; begin_event = s; writes = 0; persisted = [] } :: !tx_stack
      | Event.Tx_end -> (
        match !tx_stack with
        | [] -> ()
        | tx :: rest ->
          tx_stack := rest;
          if tx.writes = 0 then
            push
              (warn ctx Warning.Durable_tx_no_writes tx.begin_event
                 "durable transaction commits without any persistent write");
          (* nested writes also count toward enclosing transactions *)
          (match rest with
          | outer :: _ -> outer.writes <- outer.writes + tx.writes
          | [] -> ()))
      | Event.Fence | Event.Epoch_begin | Event.Epoch_end
      | Event.Strand_begin _ | Event.Strand_end _ | Event.Call_mark _
      | Event.Ret_mark _ -> ())
    scoped;
  List.rev !warnings

(* The seven rules in the order [Rules.check_trace] runs them. *)
let all =
  [
    ("unflushed-write", check_unflushed_write, Rules.check_unflushed_write);
    ( "multiple-writes-at-once",
      check_multiple_writes_at_once,
      Rules.check_multiple_writes_at_once );
    ( "missing-persist-barrier",
      check_missing_persist_barrier,
      Rules.check_missing_persist_barrier );
    ( "missing-barrier-nested-tx",
      check_missing_barrier_nested_tx,
      Rules.check_missing_barrier_nested_tx );
    ("semantic-mismatch", check_semantic_mismatch, Rules.check_semantic_mismatch);
    ("strand-dependence", check_strand_dependence, Rules.check_strand_dependence);
    ("flush-coverage", check_flush_coverage, Rules.check_flush_coverage);
  ]

(* ------------------------------------------------------------------ *)
(* A reference checker: every path [Trace.collect] materializes, each
   scoped and checked on its own (with static witnesses while capture
   is on), then first-occurrence dedup and the report order — what
   [Checker.check] computes with one rule machine stepped over shared
   path prefixes. The rules are the list scans above, or with
   [~one_pass:true] the library's one-pass rules, each folded over the
   path on its own: the list scans are quadratic, too slow for paths of
   thousands of events. *)

let check_path ?(one_pass = false) ctx trace =
  let scoped = scope_trace trace in
  let ws =
    List.concat_map
      (fun (_, reference, rule) -> (if one_pass then rule else reference) ctx scoped)
      all
  in
  if ws <> [] && Witness.enabled () then
    List.map (fun w -> Warning.with_witness w (static_witness scoped w)) ws
  else ws

let check ?one_pass ?roots ~model prog =
  let dsg = Dsa.Dsg.build prog in
  let ctx = { model; dsg; tenv = Nvmir.Prog.tenv prog } in
  Trace.collect ?roots dsg prog
  |> List.concat_map (fun (_, traces) ->
         List.concat_map (check_path ?one_pass ctx) traces)
  |> Warning.dedup |> Warning.sort
