(* The checking rules of Table 4 (persistency-model violations) and
   Table 5 (performance bugs), applied to collected traces.

   Every rule is a pure function over a "scoped" trace — the event list
   annotated with transaction nesting, epoch ordinals and strand ids —
   plus the DSG for type queries. Each rule is one forward pass over the
   path, linear in its length: address state lives in buckets keyed by
   DSG node (see "Node buckets"), and other state by persist unit, epoch
   or transaction id. Each rule's comment names the state its pass
   keeps. Rule metadata (which models a rule applies to, its formal
   statement) lives in [catalog] so the toolkit can print Tables 4 and 5
   from the registry itself. *)

type ctx = { model : Model.t; dsg : Dsa.Dsg.t; tenv : Nvmir.Ty.env }

(* ------------------------------------------------------------------ *)
(* Scoped events *)

type scoped = {
  ev : Event.t;
  idx : int;
  tx_depth : int; (* transaction nesting at this event *)
  tx_id : int; (* innermost enclosing transaction, -1 when none *)
  tx_stack : int list; (* all enclosing transactions, innermost first *)
  epoch : int; (* marked-epoch ordinal, -1 outside epochs *)
  unit_ : int; (* fence-delimited persist-unit ordinal *)
  strand : int; (* enclosing strand id, -1 outside strands *)
}

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
        mk tx_stack epoch strand
        :: go (idx + 1) tx_stack epoch unit_ (-1) rest
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

(* Number of fields of the struct a node abstracts, when known. *)
let field_count ctx node =
  let n = Dsa.Arena.canonical (Dsa.Dsg.arena ctx.dsg) node in
  match n.Dsa.Arena.ty with
  | Some (Nvmir.Ty.Named s) -> (
    match Nvmir.Ty.env_find ctx.tenv s with
    | Some sd -> Some (List.length sd.Nvmir.Ty.fields)
    | None -> None)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Node buckets.

   [Aaddr.contained_in] and [Aaddr.may_overlap] both hold only between
   addresses of one DSG node, so every rule keeps its address state in
   buckets keyed by [Aaddr.node] and a query never leaves one bucket. A
   bucket holds each distinct address once, so per-path state is
   O(distinct addresses). The maps are persistent and start empty: a
   short path allocates only for the addresses it touches. *)

module Imap = Map.Make (Int)

let on_node m (a : Dsa.Aaddr.t) =
  match Imap.find_opt a.Dsa.Aaddr.node m with Some l -> l | None -> []

let set_node m (a : Dsa.Aaddr.t) = function
  | [] -> Imap.remove a.Dsa.Aaddr.node m
  | l -> Imap.add a.Dsa.Aaddr.node l m

(* Trace addresses are hash-consed, so identical ones are usually the
   same value. *)
let same_addr (a : Dsa.Aaddr.t) b = a == b || a = b

(* [a] joins its bucket unless an identical address is already there. *)
let add_addr m a =
  let l = on_node m a in
  if List.exists (same_addr a) l then m else set_node m a (a :: l)

(* Buckets of (address, state) entries: [a]'s entry becomes [f] of the
   old one ([None] when [a] is new). *)
let update m a f =
  let rec go = function
    | [] -> [ (a, f None) ]
    | (a', x) :: rest when same_addr a' a -> (a', f (Some x)) :: rest
    | e :: rest -> e :: go rest
  in
  set_node m a (go (on_node m a))

(* Writes waiting for something to discharge them, grouped by address. *)
let add_pending m a ss =
  update m a (function None -> ss | Some ss' -> ss @ ss')

(* The pending writes of [from] join those of [into]. *)
let merge_pending into from =
  Imap.fold
    (fun _ groups into ->
      List.fold_left (fun into (a, ss) -> add_pending into a ss) into groups)
    from into

(* Split off the entries of [b]'s bucket whose address satisfies [p]. *)
let take m b p =
  match List.partition (fun (a, _) -> p a) (on_node m b) with
  | [], _ -> ([], m)
  | taken, kept -> (taken, set_node m b kept)

(* Warnings decided out of order, tagged with the index of the event
   they belong to, put back in event order. *)
let in_path_order tagged =
  List.map snd (List.sort (fun (i, _) (j, _) -> Int.compare i j) tagged)

(* Durability state of one epoch or transaction: has it issued a flush,
   and was its latest write, flush or fence a fence? *)
type closing = { flushed : bool; fenced : bool }

let unfenced = { flushed = false; fenced = false }

let step_closing c (s : scoped) =
  match s.ev.Event.kind with
  | Event.Write _ -> { c with fenced = false }
  | Event.Flush _ -> { flushed = true; fenced = false }
  | Event.Fence -> { c with fenced = true }
  | _ -> c

let unclosed c = c.flushed && not c.fenced

(* ------------------------------------------------------------------ *)
(* V: Unflushed/unlogged write (strict and epoch rows of Table 4)

   A flush anywhere later on the path covers a write; the
   cross-epoch-deferral case (covered only by a later epoch's flush) is
   the multiple-writes-at-once rule's domain. A log covers a write when
   it sits anywhere in one of the write's enclosing transactions, before
   or after the write.

   Forward pass; the logs of each open transaction by node, and pending
   writes by node and address: [nest] holds those of the open outermost
   transaction, which a later log may still cover, [out] those only a
   later flush can discharge. *)

let check_unflushed_write ctx scoped =
  let logged s a logs =
    List.exists
      (fun tx ->
        match Imap.find_opt tx logs with
        | Some in_tx -> List.exists (Dsa.Aaddr.contained_in a) (on_node in_tx a)
        | None -> false)
      s.tx_stack
  in
  let rec scan logs nest out = function
    | [] -> merge_pending out nest
    | s :: rest -> (
      match s.ev.Event.kind with
      | Event.Write a when s.tx_id < 0 ->
        scan logs nest (add_pending out a [ s ]) rest
      | Event.Write a when logged s a logs -> scan logs nest out rest
      | Event.Write a -> scan logs (add_pending nest a [ s ]) out rest
      | Event.Flush (b, _) ->
        let flushed a = Dsa.Aaddr.contained_in a b in
        scan logs (snd (take nest b flushed)) (snd (take out b flushed)) rest
      | Event.Log b when s.tx_id >= 0 ->
        let in_tx =
          Option.value ~default:Imap.empty (Imap.find_opt s.tx_id logs)
        in
        let logs = Imap.add s.tx_id (add_addr in_tx b) logs in
        let covered, nest = take nest b (fun a -> Dsa.Aaddr.contained_in a b) in
        (* the log covers the writes of its transaction and of the ones
           nested in it *)
        let nest =
          List.fold_left
            (fun nest (a, ss) ->
              let outside w = not (List.mem s.tx_id w.tx_stack) in
              match List.filter outside ss with
              | [] -> nest
              | ss -> add_pending nest a ss)
            nest covered
        in
        scan logs nest out rest
      | Event.Tx_end when s.tx_id >= 0 ->
        let logs = Imap.remove s.tx_id logs in
        if s.tx_depth = 1 then
          scan logs Imap.empty (merge_pending out nest) rest
        else scan logs nest out rest
      | _ -> scan logs nest out rest)
  in
  Imap.fold
    (fun _ groups acc ->
      List.fold_left
        (fun acc (a, ss) ->
          List.fold_left
            (fun acc s ->
              ( s.idx,
                warn ctx Warning.Unflushed_write s
                  "write to %a is never flushed or logged before it must be \
                   durable"
                  Dsa.Aaddr.pp a )
              :: acc)
            acc ss)
        acc groups)
    (scan Imap.empty Imap.empty Imap.empty scoped)
    []
  |> in_path_order

(* ------------------------------------------------------------------ *)
(* V: Multiple writes made durable at once *)

let check_multiple_writes_at_once ctx scoped =
  match ctx.model with
  | Model.Strict ->
    (* under strict persistency a fence must not batch the durability of
       updates to several distinct objects. (A multi-field update of one
       object drained by a single persist is the idiomatic atomic-object
       update and is not flagged; writes with no flush at all belong to
       the unflushed-write rule.) Forward pass; the current persist
       unit's writes and flushes by node. *)
    let durable_objects ws fs =
      Imap.fold
        (fun node written n ->
          match Imap.find_opt node fs with
          | Some flushed
            when List.exists
                   (fun a -> List.exists (Dsa.Aaddr.contained_in a) flushed)
                   written ->
            n + 1
          | Some _ | None -> n)
        ws 0
    in
    let rec scan ws fs acc = function
      | [] -> List.rev acc
      | s :: rest -> (
        match s.ev.Event.kind with
        | Event.Write a when s.tx_depth = 0 -> scan (add_addr ws a) fs acc rest
        | Event.Flush (b, _) when s.tx_depth = 0 ->
          scan ws (add_addr fs b) acc rest
        | Event.Fence when s.tx_depth = 0 ->
          let objects = durable_objects ws fs in
          let acc =
            if objects >= 2 then
              warn ctx Warning.Multiple_writes_at_once s
                "updates to %d distinct persistent objects made durable by a \
                 single persist barrier; strict persistency requires one \
                 barrier per update"
                objects
              :: acc
            else acc
          in
          scan Imap.empty Imap.empty acc rest
        | _ -> scan ws fs acc rest)
    in
    scan Imap.empty Imap.empty [] scoped
  | Model.Epoch | Model.Strand ->
    (* a write of epoch E made durable only by a flush in a later epoch
       E' > E batches the durability of the two epochs together. Forward
       pass; pending writes by node and address. Epochs never
       interleave, so the current epoch's writes wait in [cur] for a
       flush of their own epoch; when the epoch is over, the survivors
       move to [late], where the first later-epoch flush containing them
       decides their warning. *)
    let late_warnings f acc (a, ss) =
      List.fold_left
        (fun acc s ->
          ( s.idx,
            warn ctx Warning.Multiple_writes_at_once f
              "flush makes the epoch-%d write to %a durable together with \
               epoch-%d data; epoch persistency requires it to persist at its \
               own epoch boundary"
              s.epoch Dsa.Aaddr.pp a f.epoch )
          :: acc)
        acc ss
    in
    let rec scan epoch cur late acc = function
      | [] -> in_path_order acc
      | s :: _ as path when s.epoch >= 0 && s.epoch <> epoch ->
        scan s.epoch Imap.empty (merge_pending late cur) acc path
      | s :: rest -> (
        match s.ev.Event.kind with
        | Event.Write a when s.epoch >= 0 && s.tx_id < 0 ->
          scan epoch (add_pending cur a [ s ]) late acc rest
        | Event.Flush (b, _) when s.epoch >= 0 ->
          let covers a = Dsa.Aaddr.contained_in a b in
          let _, cur = take cur b covers in
          let decided, late = take late b covers in
          let acc = List.fold_left (late_warnings s) acc decided in
          scan epoch cur late acc rest
        | _ -> scan epoch cur late acc rest)
    in
    scan (-1) Imap.empty Imap.empty [] scoped

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers *)

let check_missing_persist_barrier ctx scoped =
  match ctx.model with
  | Model.Strict ->
    (* after a flush, a fence must occur before new persistent work.
       Forward pass; the flushes since the last fence, write, log or
       transaction begin. Intermediate flushes are batched (V1's
       domain), so they join the wait. *)
    let rec scan flushes acc = function
      | [] -> List.rev acc (* trace ends: nothing left to order *)
      | s :: rest -> (
        match s.ev.Event.kind with
        | Event.Flush (a, _) -> scan ((s, a) :: flushes) acc rest
        | Event.Fence -> scan [] acc rest
        | Event.Write _ | Event.Log _ | Event.Tx_begin ->
          let missing (f, a) =
            warn ctx Warning.Missing_persist_barrier f
              "flush of %a is not followed by a persist barrier before the \
               next persistent operation (%a at %a)"
              Dsa.Aaddr.pp a Event.pp_kind s.ev.Event.kind Nvmir.Loc.pp
              s.ev.Event.loc
          in
          scan [] (List.map missing flushes @ acc) rest
        | _ -> scan flushes acc rest)
    in
    scan [] [] scoped
  | Model.Epoch | Model.Strand ->
    (* a persist barrier must close every non-empty epoch. Only epochs
       that issued flushes need a closing barrier; an epoch whose writes
       were never flushed at all is the unflushed-write /
       deferred-durability rules' domain. Forward pass; the closing
       state of the current epoch and of the events outside any epoch
       (an unmatched [Epoch_end] closes those). *)
    let rec scan outside (id, inside) acc = function
      | [] -> List.rev acc
      | s :: rest ->
        let c =
          if s.epoch < 0 then outside
          else if s.epoch = id then inside
          else unfenced
        in
        let acc =
          match s.ev.Event.kind with
          | Event.Epoch_end when unclosed c ->
            warn ctx Warning.Missing_persist_barrier s
              "epoch ends without a persist barrier; stores of the next \
               epoch may persist before this epoch's stores"
            :: acc
          | _ -> acc
        in
        let c = step_closing c s in
        if s.epoch < 0 then scan c (id, inside) acc rest
        else scan outside (s.epoch, c) acc rest
    in
    scan unfenced (-1, unfenced) [] scoped

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers in nested transactions *)

let check_missing_barrier_nested_tx ctx scoped =
  match ctx.model with
  | Model.Strict -> []
  | Model.Epoch | Model.Strand ->
    (* Forward pass; the closing state of every open transaction, by
       transaction id (an event counts for its innermost transaction
       only). *)
    let rec scan txs acc = function
      | [] -> List.rev acc
      | s :: rest when s.tx_id < 0 -> scan txs acc rest
      | s :: rest -> (
        let c = Option.value ~default:unfenced (Imap.find_opt s.tx_id txs) in
        match s.ev.Event.kind with
        | Event.Tx_end ->
          let acc =
            if s.tx_depth >= 2 && unclosed c then
              warn ctx Warning.Missing_barrier_nested_tx s
                "inner transaction ends without a persist barrier; its \
                 writes are not guaranteed durable before the outer \
                 transaction continues"
              :: acc
            else acc
          in
          scan (Imap.remove s.tx_id txs) acc rest
        | Event.Write _ | Event.Flush _ | Event.Fence ->
          scan (Imap.add s.tx_id (step_closing c s) txs) acc rest
        | _ -> scan txs acc rest)
    in
    scan Imap.empty [] scoped

(* ------------------------------------------------------------------ *)
(* V: Mismatch between program semantics and model implementation *)

(* The first write to one address in the current persist unit, and
   whether a later flush of the same unit covered it. *)
type first_write = { first : scoped; mutable flushed_in_unit : bool }

(* Consecutive persist units (epochs under the epoch model, fence-
   delimited units otherwise) writing to different parts of the same
   persistent object indicate that a logically-atomic update was split
   across durability boundaries — the Figure 1 hashmap pattern. Updates
   under transaction protection are exempt (the transaction restores
   atomicity).

   Forward pass; the current unit's writes and the first write of each
   of its addresses by node, and the previous unit's flushed first
   writes by node. Units never interleave, so a unit is judged against
   its predecessor as soon as it is over. A later write to the same
   address can only pair where the first one does, and always after
   it, so the first writes decide every pair. *)
let check_semantic_mismatch ctx scoped =
  let marked =
    match ctx.model with
    | Model.Epoch | Model.Strand -> has_marked_epochs scoped
    | Model.Strict -> false
  in
  let unit_of s = if marked then s.epoch else s.unit_ in
  (* the writes of unit [u] ([ws], reversed) against [prev], the first
     writes of unit [prev_u] persisted within their own unit — otherwise
     the pair is a deferred-durability case handled by the
     multiple-writes-at-once rule *)
  let judge ~prev_u ~prev ~u ~firsts ws acc =
    if prev_u < 0 || prev_u + 1 <> u then acc
    else
      (* repeated-protocol exemption: when the later unit also re-writes
         the earlier unit's address, the units are iterations of one
         update protocol (log appends, queue publishes in a loop), not a
         split atomic update *)
      let rewritten (a1, _) =
        List.exists
          (fun (a, _) -> Dsa.Aaddr.may_overlap a a1)
          (on_node firsts a1)
      in
      let prev =
        Imap.filter_map
          (fun _ l ->
            match List.filter (fun e -> not (rewritten e)) l with
            | [] -> None
            | l -> Some l)
          prev
      in
      if Imap.is_empty prev then acc
      else
        List.fold_left
          (fun acc (s2, a2) ->
            let prior =
              List.fold_left
                (fun best ((a1, s1) as e) ->
                  if Dsa.Aaddr.may_overlap a1 a2 then best
                  else
                    match best with
                    | Some (_, b) when b.idx < s1.idx -> best
                    | Some _ | None -> Some e)
                None (on_node prev a2)
            in
            match prior with
            | Some (a1, s1) ->
              warn ctx Warning.Semantic_mismatch s2
                "consecutive persist units update different parts of the \
                 same persistent object (%a here, %a at %a); a crash between \
                 them leaves the object half-updated"
                Dsa.Aaddr.pp a2 Dsa.Aaddr.pp a1 Nvmir.Loc.pp s1.ev.Event.loc
              :: acc
            | None -> acc)
          acc (List.rev ws)
  in
  let persisted firsts =
    Imap.filter_map
      (fun _ l ->
        match
          List.filter_map
            (fun (a, fw) ->
              if fw.flushed_in_unit then Some (a, fw.first) else None)
            l
        with
        | [] -> None
        | l -> Some l)
      firsts
  in
  let rec scan ~prev_u ~prev ~u ~firsts ws acc = function
    | [] -> List.rev (judge ~prev_u ~prev ~u ~firsts ws acc)
    | s :: _ as path when unit_of s >= 0 && unit_of s <> u ->
      let acc = judge ~prev_u ~prev ~u ~firsts ws acc in
      scan ~prev_u:u ~prev:(persisted firsts) ~u:(unit_of s) ~firsts:Imap.empty
        [] acc path
    | s :: rest -> (
      match s.ev.Event.kind with
      | Event.Write a when s.tx_depth = 0 && ((not marked) || s.epoch >= 0) ->
        let firsts =
          update firsts a (function
            | Some fw -> fw
            | None -> { first = s; flushed_in_unit = false })
        in
        scan ~prev_u ~prev ~u ~firsts ((s, a) :: ws) acc rest
      | Event.Flush (b, _) when unit_of s >= 0 ->
        List.iter
          (fun (a, fw) ->
            if Dsa.Aaddr.contained_in a b then fw.flushed_in_unit <- true)
          (on_node firsts b);
        scan ~prev_u ~prev ~u ~firsts ws acc rest
      | _ -> scan ~prev_u ~prev ~u ~firsts ws acc rest)
  in
  scan ~prev_u:(-1) ~prev:Imap.empty ~u:(-1) ~firsts:Imap.empty [] [] scoped

(* ------------------------------------------------------------------ *)
(* V: Data dependencies between strands (static over-approximation) *)

type strand_region = {
  sr_id : int;
  sr_begin_unit : int; (* fence-delimited unit at strand begin *)
  mutable sr_end_unit : int;
  mutable sr_writes : (Dsa.Aaddr.t * scoped) list Imap.t;
      (* the latest write to each distinct address, by node *)
}

(* Strand regions separated by a persist barrier are ordered; regions
   with no barrier between them may persist concurrently and must
   therefore touch disjoint addresses (Table 4, strand row). Forward
   pass; each region's latest write per address by node, then one check
   per pair of concurrent regions. *)
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
              sr_writes = Imap.empty;
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
          | Some r -> r.sr_writes <- update r.sr_writes a (fun _ -> s)
          | None -> ())
        | _ -> ())
      scoped;
    let regions = List.rev !regions in
    let concurrent r1 r2 =
      r1.sr_id <> r2.sr_id
      && not (r2.sr_begin_unit > r1.sr_end_unit || r1.sr_begin_unit > r2.sr_end_unit)
    in
    (* the latest write of [r2] to an address [r1] may also write *)
    let shared r1 r2 =
      Imap.fold
        (fun node w2 best ->
          match Imap.find_opt node r1.sr_writes with
          | None -> best
          | Some w1 ->
            List.fold_left
              (fun best ((a2, s2) as e) ->
                if
                  (match best with Some (_, b) -> s2.idx > b.idx | None -> true)
                  && List.exists (fun (a1, _) -> Dsa.Aaddr.may_overlap a1 a2) w1
                then Some e
                else best)
              best w2)
        r2.sr_writes None
    in
    let rec pairs = function
      | [] -> []
      | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
    in
    List.filter_map
      (fun (r1, r2) ->
        if not (concurrent r1 r2) then None
        else
          Option.map
            (fun (a2, s2) ->
              warn ctx Warning.Strand_dependence s2
                "strands %d and %d both write %a; dependent strands must not \
                 persist concurrently"
                r1.sr_id r2.sr_id Dsa.Aaddr.pp a2)
            (shared r1 r2))
      (pairs regions)

(* ------------------------------------------------------------------ *)
(* P: flush-coverage rules (Table 5), one stateful scan:
   - multiple flushes to a persistent object (redundant write-backs)
   - flush an unmodified object / unmodified fields
   - persist the same object multiple times in a transaction
   - durable transaction without persistent writes

   Forward pass; dirty and clean addresses by node, and a stack of open
   transactions, each with its persisted addresses by node. A
   whole-object log is judged on the writes that follow it in its
   transaction, so its warning keeps its place in the output and is
   decided when the transaction closes. *)

(* Writes to a node that has a whole-object log in the transaction: the
   index of the latest whole-object write and of the latest write to
   each field. *)
type node_writes = {
  mutable whole_at : int;
  mutable field_at : (string * int) list;
}

(* A whole-object log of a struct with [wl_fields] fields, and the place
   its warning takes in the output. *)
type whole_log = {
  wl_at : scoped;
  wl_node : int;
  wl_fields : int;
  wl_slot : Warning.t option ref;
}

type tx_state = {
  begin_event : scoped;
  mutable written : bool;
  mutable persisted : Dsa.Aaddr.t list Imap.t; (* logged or flushed here *)
  mutable whole_logs : whole_log list;
  mutable logged_nodes : node_writes Imap.t; (* the nodes of [whole_logs] *)
}

type emitted = Now of Warning.t | Deferred of Warning.t option ref

let distinct_fields addrs =
  List.sort_uniq compare
    (List.filter_map (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field) addrs)

let check_flush_coverage ctx scoped =
  let out = ref [] in
  let push w = out := Now w :: !out in
  let dirty = ref Imap.empty in (* written, not yet flushed *)
  let clean = ref Imap.empty in (* flushed since last overlapping write *)
  let tx_stack = ref [] in
  let overlaps m b =
    List.exists (fun f -> Dsa.Aaddr.may_overlap f b) (on_node m b)
  in
  (* logging a whole object whose fields are mostly untouched copies
     unmodified data into the undo log; judged when [tx] closes *)
  let note_whole_log tx s node =
    match field_count ctx node with
    | Some nfields when nfields > 1 ->
      let slot = ref None in
      out := Deferred slot :: !out;
      tx.whole_logs <-
        { wl_at = s; wl_node = node; wl_fields = nfields; wl_slot = slot }
        :: tx.whole_logs;
      if not (Imap.mem node tx.logged_nodes) then
        tx.logged_nodes <-
          Imap.add node { whole_at = -1; field_at = [] } tx.logged_nodes
    | Some _ | None -> ()
  in
  let judge_whole_logs tx =
    List.iter
      (fun l ->
        let nw = Imap.find l.wl_node tx.logged_nodes in
        let written =
          List.length
            (List.filter (fun (_, at) -> at > l.wl_at.idx) nw.field_at)
        in
        match written with
        | 0 -> ()
        | _ when nw.whole_at > l.wl_at.idx -> ()
        | _ when written < l.wl_fields ->
          l.wl_slot :=
            Some
              (warn ctx Warning.Flush_unmodified l.wl_at
                 "whole object logged but only %d of %d fields are modified in \
                  the transaction; unmodified fields are copied to the undo log"
                 written l.wl_fields)
        | _ -> ())
      tx.whole_logs
  in
  let handle_redundant s (b : Dsa.Aaddr.t) ~covered =
    if overlaps !clean b && covered = [] then begin
      (match !tx_stack with
      | tx :: _ when overlaps tx.persisted b ->
        push
          (warn ctx Warning.Persist_same_object_in_tx s
             "%a is persisted again within the same transaction without an \
              intervening modification"
             Dsa.Aaddr.pp b)
      | _ ->
        push
          (warn ctx Warning.Multiple_flushes s
             "redundant write-back: %a was already flushed and not modified \
              since"
             Dsa.Aaddr.pp b));
      true
    end
    else false
  in
  List.iter
    (fun s ->
      match s.ev.Event.kind with
      | Event.Write a ->
        dirty := add_addr !dirty a;
        (match on_node !clean a with
        | [] -> ()
        | l ->
          clean :=
            set_node !clean a
              (List.filter (fun f -> not (Dsa.Aaddr.may_overlap f a)) l));
        List.iter
          (fun tx ->
            tx.written <- true;
            match Imap.find_opt a.Dsa.Aaddr.node tx.logged_nodes with
            | None -> ()
            | Some nw -> (
              match a.Dsa.Aaddr.field with
              | None -> nw.whole_at <- s.idx
              | Some f ->
                nw.field_at <- (f, s.idx) :: List.remove_assoc f nw.field_at))
          !tx_stack
      | Event.Log b -> (
        match !tx_stack with
        | [] -> ()
        | tx :: _ -> (
          if overlaps tx.persisted b then
            push
              (warn ctx Warning.Persist_same_object_in_tx s
                 "%a is logged into the transaction more than once"
                 Dsa.Aaddr.pp b);
          tx.persisted <- add_addr tx.persisted b;
          if b.Dsa.Aaddr.field = None then
            note_whole_log tx s b.Dsa.Aaddr.node))
      | Event.Flush (b, origin) -> (
        let covered =
          List.filter (fun w -> Dsa.Aaddr.may_overlap w b) (on_node !dirty b)
        in
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
        | tx :: _ -> tx.persisted <- add_addr tx.persisted b
        | [] -> ());
        clean := add_addr !clean b;
        dirty :=
          set_node !dirty b
            (List.filter
               (fun w -> not (Dsa.Aaddr.contained_in w b))
               (on_node !dirty b)))
      | Event.Tx_begin ->
        tx_stack :=
          {
            begin_event = s;
            written = false;
            persisted = Imap.empty;
            whole_logs = [];
            logged_nodes = Imap.empty;
          }
          :: !tx_stack
      | Event.Tx_end -> (
        match !tx_stack with
        | [] -> ()
        | tx :: rest ->
          tx_stack := rest;
          if not tx.written then
            push
              (warn ctx Warning.Durable_tx_no_writes tx.begin_event
                 "durable transaction commits without any persistent write");
          judge_whole_logs tx)
      | Event.Fence | Event.Epoch_begin | Event.Epoch_end
      | Event.Strand_begin _ | Event.Strand_end _ | Event.Call_mark _
      | Event.Ret_mark _ -> ())
    scoped;
  List.iter judge_whole_logs !tx_stack;
  List.rev !out
  |> List.filter_map (function Now w -> Some w | Deferred slot -> !slot)

(* ------------------------------------------------------------------ *)
(* Registry *)

type rule_meta = {
  id : Warning.rule_id;
  models : Model.t list; (* models the rule applies to *)
  statement : string; (* the formal rule as stated in Table 4 / Table 5 *)
}

let catalog =
  [
    {
      id = Warning.Unflushed_write;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "A write W to address A1 must be followed by a flush F of A2 with \
         A1 contained in A2 (strict: A1 = A2; epoch: within the same epoch), \
         or be logged into an enclosing transaction.";
    };
    {
      id = Warning.Multiple_writes_at_once;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "A persist barrier P must be preceded by only one write W (strict); \
         a write of epoch E must not first become durable via a flush in a \
         later epoch (epoch).";
    };
    {
      id = Warning.Missing_persist_barrier;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "Strict: every flush is followed by a persist barrier before the \
         next persistent operation. Epoch: every non-empty epoch E1 ends \
         with a persist barrier before epoch E2 begins.";
    };
    {
      id = Warning.Missing_barrier_nested_tx;
      models = [ Model.Epoch ];
      statement =
        "For any transaction E1 nested inside E2, a persist barrier must \
         close E1 before control returns to E2.";
    };
    {
      id = Warning.Semantic_mismatch;
      models = [ Model.Strict; Model.Epoch ];
      statement =
        "For consecutive persist units E1 and E2 writing addresses A1 in O1 \
         and A2 in O2, O1 must differ from O2 (a logically-atomic object \
         update must not straddle a durability boundary).";
    };
    {
      id = Warning.Strand_dependence;
      models = [ Model.Strand ];
      statement =
        "For any concurrent strands S1 and S2 operating on addresses A1 and \
         A2, A1 and A2 must be disjoint.";
    };
    {
      id = Warning.Multiple_flushes;
      models = Model.all;
      statement =
        "For any two flushes F1 and F2 of addresses A1 and A2 with no \
         intervening write, A1 and A2 must be disjoint.";
    };
    {
      id = Warning.Flush_unmodified;
      models = Model.all;
      statement =
        "For a flush F of address A1 there must be a preceding write W to \
         A2 with A1 = A2; flushing or logging a whole object requires all \
         its fields to be modified.";
    };
    {
      id = Warning.Persist_same_object_in_tx;
      models = Model.all;
      statement =
        "Within one transaction, a persistent object must be logged or \
         persisted at most once unless modified in between.";
    };
    {
      id = Warning.Durable_tx_no_writes;
      models = Model.all;
      statement =
        "Every durable transaction (or persist operation) must contain at \
         least one persistent write.";
    };
    (* Recovery-path rules: fired by the media-corruption recovery
       executor ([Recover]), never by the static trace rules above. *)
    {
      id = Warning.Unguarded_recovery_read;
      models = Model.all;
      statement =
        "A recovery-path read of a slot the crash left in flight (and \
         possibly media-corrupt) must be preceded by a CRC check covering \
         that slot.";
    };
    {
      id = Warning.Silent_corruption_accept;
      models = Model.all;
      statement =
        "If any slot of the recovered image is still corrupt when recovery \
         returns, recovery must signal failure (nonzero return) rather \
         than accept the image.";
    };
    {
      id = Warning.Non_idempotent_recovery;
      models = Model.all;
      statement =
        "Running recovery a second time over an already-recovered image \
         must leave persistent state unchanged (recovery is a fix-point).";
    };
  ]

let meta_of id = List.find (fun m -> m.id = id) catalog

let applicable_rules model =
  List.filter (fun m -> List.exists (Model.equal model) m.models) catalog

(* One [run_all] serves both engines ([check_trace] and
   [Incremental.finish]), so this counter covers every path the checker
   runs the rules over, regardless of engine. *)
let m_events_scanned =
  Obs.Metrics.counter "rules.events_scanned"
    ~desc:"scoped events handed to the rule set, summed over completed paths"

(* ------------------------------------------------------------------ *)
(* Static witnesses: the minimal event slice behind a warning.

   Built only when witness capture is enabled, from the scoped events
   the rule already walked — the warning's trigger event, the
   flush/fence (or log) events that should order it, the enclosing
   transaction boundaries, and the interprocedural call path recovered
   from the trace's call/ret provenance markers. The disabled path is
   one atomic load per completed trace. *)

let slice_ref ~role (s : scoped) =
  Witness.event_ref ~role
    ~what:(Fmt.str "%a" Event.pp_kind s.ev.Event.kind)
    ~loc:s.ev.Event.loc ~fname:s.ev.Event.fname

(* The call stack enclosing [idx], outermost first, from the
   Call_mark/Ret_mark provenance markers of the merged trace. *)
let call_path_at scoped idx =
  List.rev
    (List.fold_left
       (fun stack s ->
         if s.idx >= idx then stack
         else
           match s.ev.Event.kind with
           | Event.Call_mark f -> f :: stack
           | Event.Ret_mark _ -> ( match stack with [] -> [] | _ :: t -> t)
           | _ -> stack)
       [] scoped)

let first_after scoped idx pred =
  List.find_opt (fun s -> s.idx > idx && pred s) scoped

let last_before scoped idx pred =
  List.fold_left
    (fun acc s -> if s.idx < idx && pred s then Some s else acc)
    None scoped

let static_witness scoped (w : Warning.t) : Witness.t =
  let trigger =
    List.find_opt
      (fun s -> Nvmir.Loc.equal s.ev.Event.loc w.Warning.loc)
      scoped
  in
  match trigger with
  | None -> Witness.Static { s_slice = []; s_call_path = [] }
  | Some t ->
    let covering_flush a =
      first_after scoped t.idx (fun s ->
          match s.ev.Event.kind with
          | Event.Flush (b, _) -> Dsa.Aaddr.contained_in a b
          | _ -> false)
    in
    let fence_after idx =
      first_after scoped idx (fun s -> s.ev.Event.kind = Event.Fence)
    in
    let tx_pair () =
      if t.tx_id < 0 then []
      else
        let begin_ =
          List.find_opt
            (fun s ->
              s.tx_id = t.tx_id && s.ev.Event.kind = Event.Tx_begin)
            scoped
        in
        let end_ =
          first_after scoped t.idx (fun s ->
              s.tx_id = t.tx_id && s.ev.Event.kind = Event.Tx_end)
        in
        List.filter_map Fun.id
          [
            Option.map (slice_ref ~role:"tx-begin") begin_;
            Option.map (slice_ref ~role:"tx-end") end_;
          ]
    in
    let slice =
      match t.ev.Event.kind with
      | Event.Write a -> (
        slice_ref ~role:"store" t
        ::
        (match covering_flush a with
        | Some f -> (
          slice_ref ~role:"covering-flush" f
          ::
          (match fence_after f.idx with
          | Some fe -> [ slice_ref ~role:"ordering-fence" fe ]
          | None -> []))
        | None -> (
          match
            first_after scoped t.idx (fun s ->
                match s.ev.Event.kind with
                | Event.Log b -> Dsa.Aaddr.contained_in a b
                | _ -> false)
          with
          | Some l -> [ slice_ref ~role:"tx-log" l ]
          | None -> [])))
      | Event.Flush (b, _) ->
        List.filter_map Fun.id
          [
            Option.map (slice_ref ~role:"written-store")
              (last_before scoped t.idx (fun s ->
                   match s.ev.Event.kind with
                   | Event.Write a -> Dsa.Aaddr.contained_in a b
                   | _ -> false));
            Some (slice_ref ~role:"flush" t);
            Option.map (slice_ref ~role:"ordering-fence") (fence_after t.idx);
          ]
      | Event.Fence ->
        (* the stores and flushes this barrier drains: same persist unit *)
        List.filter_map
          (fun s ->
            if s.idx < t.idx && s.unit_ = t.unit_ then
              match s.ev.Event.kind with
              | Event.Write _ -> Some (slice_ref ~role:"drained-store" s)
              | Event.Flush _ -> Some (slice_ref ~role:"drained-flush" s)
              | _ -> None
            else None)
          scoped
        @ [ slice_ref ~role:"persist-barrier" t ]
      | Event.Tx_begin | Event.Tx_end ->
        slice_ref
          ~role:
            (if t.ev.Event.kind = Event.Tx_begin then "tx-begin" else "tx-end")
          t
        :: []
      | _ -> [ slice_ref ~role:"trigger" t ]
    in
    let slice = slice @ if t.ev.Event.kind = Event.Tx_begin then [] else tx_pair () in
    (* keep the slice minimal and in trace order, one entry per event *)
    let slice =
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (r : Witness.event_ref) ->
          let k = (r.Witness.er_role, Nvmir.Loc.to_string r.Witness.er_loc) in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.replace seen k ();
            true
          end)
        slice
    in
    Witness.Static { s_slice = slice; s_call_path = call_path_at scoped t.idx }

let attach_witnesses scoped warnings =
  List.map
    (fun (w : Warning.t) ->
      match w.Warning.witness with
      | Some _ -> w
      | None -> Warning.with_witness w (static_witness scoped w))
    warnings

let run_all ctx scoped =
  if Obs.enabled () then Obs.Metrics.add m_events_scanned (List.length scoped);
  let warnings =
    List.concat
      [
        check_unflushed_write ctx scoped;
        check_multiple_writes_at_once ctx scoped;
        check_missing_persist_barrier ctx scoped;
        check_missing_barrier_nested_tx ctx scoped;
        check_semantic_mismatch ctx scoped;
        check_strand_dependence ctx scoped;
        check_flush_coverage ctx scoped;
      ]
  in
  if warnings <> [] && Witness.enabled () then attach_witnesses scoped warnings
  else warnings

(* Run every applicable rule over one trace. *)
let check_trace ctx (trace : Trace.t) : Warning.t list =
  run_all ctx (scope_trace trace)

(* ------------------------------------------------------------------ *)
(* Incremental checking (streaming engine).

   The streaming trace engine feeds events into a per-path state as the
   path is enumerated; the state is a persistent value, so forking an
   in-flight path at a branch point is one pointer copy and siblings
   share their common scoped prefix. When a path completes, [finish]
   runs the rule set over its scoped events and the warnings stream out
   — no second pass over a materialized trace.

   [step] is an independent reimplementation of [scope_trace] (kept
   deliberately separate: the Materialized/Streaming differential tests
   cross-check the two scopings against each other). *)

module Incremental = struct
  type state = {
    idx : int;
    tx_counter : int;
    epoch_counter : int;
    tx_stack : int list;
    epoch : int;
    unit_ : int;
    strand : int;
    rev_scoped : scoped list; (* shared with forked siblings *)
  }

  let start =
    {
      idx = 0;
      tx_counter = 0;
      epoch_counter = 0;
      tx_stack = [];
      epoch = -1;
      unit_ = 0;
      strand = -1;
      rev_scoped = [];
    }

  let step (st : state) (e : Event.t) : state =
    let mk tx_stack epoch strand =
      {
        ev = e;
        idx = st.idx;
        tx_depth = List.length tx_stack;
        tx_id = (match tx_stack with [] -> -1 | t :: _ -> t);
        tx_stack;
        epoch;
        unit_ = st.unit_;
        strand;
      }
    in
    let push s st = { st with idx = st.idx + 1; rev_scoped = s :: st.rev_scoped } in
    match e.Event.kind with
    | Event.Tx_begin ->
      let id = st.tx_counter in
      let stack = id :: st.tx_stack in
      push
        (mk stack st.epoch st.strand)
        { st with tx_counter = id + 1; tx_stack = stack }
    | Event.Tx_end ->
      (* the Tx_end event itself belongs to the transaction it closes *)
      let popped = match st.tx_stack with [] -> [] | _ :: t -> t in
      push (mk st.tx_stack st.epoch st.strand) { st with tx_stack = popped }
    | Event.Epoch_begin ->
      let id = st.epoch_counter in
      push
        (mk st.tx_stack id st.strand)
        { st with epoch_counter = id + 1; epoch = id }
    | Event.Epoch_end ->
      push (mk st.tx_stack st.epoch st.strand) { st with epoch = -1 }
    | Event.Strand_begin n ->
      push (mk st.tx_stack st.epoch n) { st with strand = n }
    | Event.Strand_end _ ->
      push (mk st.tx_stack st.epoch st.strand) { st with strand = -1 }
    | Event.Fence ->
      push (mk st.tx_stack st.epoch st.strand) { st with unit_ = st.unit_ + 1 }
    | Event.Write _ | Event.Flush _ | Event.Log _ | Event.Call_mark _
    | Event.Ret_mark _ -> push (mk st.tx_stack st.epoch st.strand) st

  let feed st trace = List.fold_left step st trace
  let finish ctx st = run_all ctx (List.rev st.rev_scoped)
end
