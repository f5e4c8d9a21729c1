(* The checking rules of Table 4 (persistency-model violations) and
   Table 5 (performance bugs), applied to collected traces.

   Every rule is a machine stepped one scoped event at a time — the
   event annotated with transaction nesting, epoch ordinals and strand
   ids — plus the DSG for type queries. A rule's state is a persistent
   value: stepping never mutates it, so two paths that share a prefix
   can share the state the prefix built, and each rule's [finish] only
   makes the decisions that need the path's end. Address state lives in
   buckets keyed by DSG node (see "Node buckets"), other state by
   persist unit, epoch or transaction id, so a step costs time in the
   addresses it touches, not in the path length; each rule's comment
   names the state it keeps. [Incremental] steps all seven rules
   together; each [check_*] folds one of them over a scoped list. Rule
   metadata (which models a rule applies to, its formal statement)
   lives in [catalog] so the toolkit can print Tables 4 and 5 from the
   registry itself. *)

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

(* The scoping of the events so far: what the next event is annotated
   with. *)
type scope = {
  next_idx : int;
  tx_counter : int;
  epoch_counter : int;
  open_txs : int list; (* innermost first *)
  open_depth : int;
  cur_epoch : int;
  cur_unit : int;
  cur_strand : int;
}

let scope_start =
  {
    next_idx = 0;
    tx_counter = 0;
    epoch_counter = 0;
    open_txs = [];
    open_depth = 0;
    cur_epoch = -1;
    cur_unit = 0;
    cur_strand = -1;
  }

let scope_step sc (e : Event.t) : scope * scoped =
  let next_idx = sc.next_idx + 1 in
  let sc' =
    match e.Event.kind with
    | Event.Tx_begin ->
      {
        sc with
        next_idx;
        tx_counter = sc.tx_counter + 1;
        open_txs = sc.tx_counter :: sc.open_txs;
        open_depth = sc.open_depth + 1;
      }
    | Event.Tx_end -> (
      match sc.open_txs with
      | [] -> { sc with next_idx }
      | _ :: popped -> { sc with next_idx; open_txs = popped; open_depth = sc.open_depth - 1 })
    | Event.Epoch_begin ->
      { sc with next_idx; epoch_counter = sc.epoch_counter + 1; cur_epoch = sc.epoch_counter }
    | Event.Epoch_end -> { sc with next_idx; cur_epoch = -1 }
    | Event.Strand_begin n -> { sc with next_idx; cur_strand = n }
    | Event.Strand_end _ -> { sc with next_idx; cur_strand = -1 }
    | Event.Fence -> { sc with next_idx; cur_unit = sc.cur_unit + 1 }
    | Event.Write _ | Event.Flush _ | Event.Log _ | Event.Call_mark _
    | Event.Ret_mark _ -> { sc with next_idx }
  in
  (* a begin event lies inside the scope it opens; an end event (the
     Tx_end of the transaction it closes, the fence of its unit) inside
     the one it closes *)
  let at =
    match e.Event.kind with
    | Event.Tx_begin | Event.Epoch_begin | Event.Strand_begin _ -> sc'
    | _ -> sc
  in
  ( sc',
    {
      ev = e;
      idx = sc.next_idx;
      tx_depth = at.open_depth;
      tx_id = (match at.open_txs with [] -> -1 | t :: _ -> t);
      tx_stack = at.open_txs;
      epoch = at.cur_epoch;
      unit_ = at.cur_unit;
      strand = at.cur_strand;
    } )

let scope_trace (trace : Trace.t) : scoped list =
  let rec go sc acc = function
    | [] -> List.rev acc
    | e :: rest ->
      let sc, s = scope_step sc e in
      go sc (s :: acc) rest
  in
  go scope_start [] trace

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
   short path allocates only for the addresses it touches, and an
   update that changes nothing returns the map it was given. *)

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
type pending = (Dsa.Aaddr.t * scoped list) list Imap.t

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

(* [List.map] that returns [l] itself when [f] changes no element. *)
let rec map_same f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x and rest' = map_same f rest in
    if x' == x && rest' == rest then l else x' :: rest'

(* Durability state of one epoch or transaction: has it issued a flush,
   and was its latest write, flush or fence a fence? *)
type closing = { flushed : bool; fenced : bool }

let unfenced = { flushed = false; fenced = false }

let step_closing c (s : scoped) =
  match s.ev.Event.kind with
  | Event.Write _ -> if c.fenced then { c with fenced = false } else c
  | Event.Flush _ ->
    if c.flushed && not c.fenced then c else { flushed = true; fenced = false }
  | Event.Fence -> if c.fenced then c else { c with fenced = true }
  | _ -> c

let unclosed c = c.flushed && not c.fenced

(* ------------------------------------------------------------------ *)
(* V: Unflushed/unlogged write (strict and epoch rows of Table 4)

   A flush anywhere later on the path covers a write; the
   cross-epoch-deferral case (covered only by a later epoch's flush) is
   the multiple-writes-at-once rule's domain. A log covers a write when
   it sits anywhere in one of the write's enclosing transactions, before
   or after the write.

   State: the logs of each open transaction by node, and pending writes
   by node and address: [uw_nest] holds those of the open outermost
   transaction, which a later log may still cover, [uw_out] those only a
   later flush can discharge. Whatever is pending when the path ends is
   unflushed. *)

type unflushed = {
  uw_logs : Dsa.Aaddr.t list Imap.t Imap.t; (* by transaction id *)
  uw_nest : pending;
  uw_out : pending;
}

let unflushed_start =
  { uw_logs = Imap.empty; uw_nest = Imap.empty; uw_out = Imap.empty }

let unflushed_step st s =
  let logged a =
    List.exists
      (fun tx ->
        match Imap.find_opt tx st.uw_logs with
        | Some in_tx -> List.exists (Dsa.Aaddr.contained_in a) (on_node in_tx a)
        | None -> false)
      s.tx_stack
  in
  match s.ev.Event.kind with
  | Event.Write a when s.tx_id < 0 ->
    { st with uw_out = add_pending st.uw_out a [ s ] }
  | Event.Write a when logged a -> st
  | Event.Write a -> { st with uw_nest = add_pending st.uw_nest a [ s ] }
  | Event.Flush (b, _) ->
    let flushed a = Dsa.Aaddr.contained_in a b in
    let _, nest = take st.uw_nest b flushed in
    let _, out = take st.uw_out b flushed in
    if nest == st.uw_nest && out == st.uw_out then st
    else { st with uw_nest = nest; uw_out = out }
  | Event.Log b when s.tx_id >= 0 ->
    let in_tx =
      Option.value ~default:Imap.empty (Imap.find_opt s.tx_id st.uw_logs)
    in
    let logs = Imap.add s.tx_id (add_addr in_tx b) st.uw_logs in
    let covered, nest =
      take st.uw_nest b (fun a -> Dsa.Aaddr.contained_in a b)
    in
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
    { st with uw_logs = logs; uw_nest = nest }
  | Event.Tx_end when s.tx_id >= 0 ->
    let logs = Imap.remove s.tx_id st.uw_logs in
    if s.tx_depth = 1 then
      {
        uw_logs = logs;
        uw_nest = Imap.empty;
        uw_out = merge_pending st.uw_out st.uw_nest;
      }
    else { st with uw_logs = logs }
  | _ -> st

let unflushed_finish ctx st =
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
    (merge_pending st.uw_out st.uw_nest)
    []
  |> in_path_order

(* ------------------------------------------------------------------ *)
(* V: Multiple writes made durable at once

   Strict: a fence must not batch the durability of updates to several
   distinct objects. (A multi-field update of one object drained by a
   single persist is the idiomatic atomic-object update and is not
   flagged; writes with no flush at all belong to the unflushed-write
   rule.) State: the current persist unit's writes and flushes by node.

   Epoch and strand: a write of epoch E made durable only by a flush in
   a later epoch E' > E batches the durability of the two epochs
   together. State: pending writes by node and address. Epochs never
   interleave, so the current epoch's writes wait in [cur] for a flush
   of their own epoch; when the epoch is over, the survivors move to
   [late], where the first later-epoch flush containing them decides
   their warning. *)

type multiple =
  | Mw_strict of {
      ws : Dsa.Aaddr.t list Imap.t;
      fs : Dsa.Aaddr.t list Imap.t;
      rev : Warning.t list;
    }
  | Mw_epoch of by_epoch

and by_epoch = {
  cur_epoch_of : int; (* the epoch of the latest event in one *)
  cur : pending;
  late : pending;
  tagged : (int * Warning.t) list;
}

let multiple_start ctx =
  match ctx.model with
  | Model.Strict -> Mw_strict { ws = Imap.empty; fs = Imap.empty; rev = [] }
  | Model.Epoch | Model.Strand ->
    Mw_epoch
      { cur_epoch_of = -1; cur = Imap.empty; late = Imap.empty; tagged = [] }

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

let multiple_step ctx st s =
  match st with
  | Mw_strict m -> (
    match s.ev.Event.kind with
    | Event.Write a when s.tx_depth = 0 ->
      let ws = add_addr m.ws a in
      if ws == m.ws then st else Mw_strict { m with ws }
    | Event.Flush (b, _) when s.tx_depth = 0 ->
      let fs = add_addr m.fs b in
      if fs == m.fs then st else Mw_strict { m with fs }
    | Event.Fence when s.tx_depth = 0 ->
      let objects = durable_objects m.ws m.fs in
      if objects >= 2 then
        Mw_strict
          {
            ws = Imap.empty;
            fs = Imap.empty;
            rev =
              warn ctx Warning.Multiple_writes_at_once s
                "updates to %d distinct persistent objects made durable by a \
                 single persist barrier; strict persistency requires one \
                 barrier per update"
                objects
              :: m.rev;
          }
      else if Imap.is_empty m.ws && Imap.is_empty m.fs then st
      else Mw_strict { m with ws = Imap.empty; fs = Imap.empty }
    | _ -> st)
  | Mw_epoch m0 -> (
    let m =
      if s.epoch >= 0 && s.epoch <> m0.cur_epoch_of then
        {
          m0 with
          cur_epoch_of = s.epoch;
          cur = Imap.empty;
          late = merge_pending m0.late m0.cur;
        }
      else m0
    in
    let unchanged () = if m == m0 then st else Mw_epoch m in
    match s.ev.Event.kind with
    | Event.Write a when s.epoch >= 0 && s.tx_id < 0 ->
      Mw_epoch { m with cur = add_pending m.cur a [ s ] }
    | Event.Flush (b, _) when s.epoch >= 0 ->
      let covers a = Dsa.Aaddr.contained_in a b in
      let _, cur = take m.cur b covers in
      let decided, late = take m.late b covers in
      if cur == m.cur && late == m.late then unchanged ()
      else
        let tagged =
          List.fold_left
            (fun acc (a, ss) ->
              List.fold_left
                (fun acc w ->
                  ( w.idx,
                    warn ctx Warning.Multiple_writes_at_once s
                      "flush makes the epoch-%d write to %a durable together \
                       with epoch-%d data; epoch persistency requires it to \
                       persist at its own epoch boundary"
                      w.epoch Dsa.Aaddr.pp a s.epoch )
                  :: acc)
                acc ss)
            m.tagged decided
        in
        Mw_epoch { m with cur; late; tagged }
    | _ -> unchanged ())

let multiple_finish = function
  | Mw_strict m -> List.rev m.rev
  | Mw_epoch m -> in_path_order m.tagged

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers

   Strict: after a flush, a fence must occur before new persistent
   work. State: the flushes since the last fence, write, log or
   transaction begin. Intermediate flushes are batched (V1's domain), so
   they join the wait; at the path's end nothing is left to order.

   Epoch and strand: a persist barrier must close every non-empty epoch.
   Only epochs that issued flushes need a closing barrier; an epoch
   whose writes were never flushed at all is the unflushed-write /
   deferred-durability rules' domain. State: the closing state of the
   current epoch and of the events outside any epoch (an unmatched
   [Epoch_end] closes those). *)

type barrier =
  | Pb_strict of { flushes : (scoped * Dsa.Aaddr.t) list; rev : Warning.t list }
  | Pb_epoch of {
      outside : closing;
      id : int;
      inside : closing;
      rev : Warning.t list;
    }

let barrier_start ctx =
  match ctx.model with
  | Model.Strict -> Pb_strict { flushes = []; rev = [] }
  | Model.Epoch | Model.Strand ->
    Pb_epoch { outside = unfenced; id = -1; inside = unfenced; rev = [] }

let barrier_step ctx st s =
  match st with
  | Pb_strict m -> (
    match s.ev.Event.kind with
    | Event.Flush (a, _) -> Pb_strict { m with flushes = (s, a) :: m.flushes }
    | Event.Fence ->
      if m.flushes = [] then st else Pb_strict { m with flushes = [] }
    | Event.Write _ | Event.Log _ | Event.Tx_begin ->
      if m.flushes = [] then st
      else
        let missing (f, a) =
          warn ctx Warning.Missing_persist_barrier f
            "flush of %a is not followed by a persist barrier before the next \
             persistent operation (%a at %a)"
            Dsa.Aaddr.pp a Event.pp_kind s.ev.Event.kind Nvmir.Loc.pp
            s.ev.Event.loc
        in
        Pb_strict { flushes = []; rev = List.map missing m.flushes @ m.rev }
    | _ -> st)
  | Pb_epoch m ->
    let c =
      if s.epoch < 0 then m.outside
      else if s.epoch = m.id then m.inside
      else unfenced
    in
    let rev =
      match s.ev.Event.kind with
      | Event.Epoch_end when unclosed c ->
        warn ctx Warning.Missing_persist_barrier s
          "epoch ends without a persist barrier; stores of the next epoch may \
           persist before this epoch's stores"
        :: m.rev
      | _ -> m.rev
    in
    let c' = step_closing c s in
    if s.epoch < 0 then
      if c' == m.outside && rev == m.rev then st
      else Pb_epoch { m with outside = c'; rev }
    else if s.epoch = m.id && c' == m.inside && rev == m.rev then st
    else Pb_epoch { m with id = s.epoch; inside = c'; rev }

let barrier_finish = function
  | Pb_strict m -> List.rev m.rev
  | Pb_epoch m -> List.rev m.rev

(* ------------------------------------------------------------------ *)
(* V: Missing persist barriers in nested transactions (epoch and strand
   models). State: the closing state of every open transaction, by
   transaction id (an event counts for its innermost transaction
   only). *)

type nested =
  | Nt_off
  | Nt_on of { txs : closing Imap.t; rev : Warning.t list }

let nested_start ctx =
  match ctx.model with
  | Model.Strict -> Nt_off
  | Model.Epoch | Model.Strand -> Nt_on { txs = Imap.empty; rev = [] }

let nested_step ctx st s =
  match st with
  | Nt_off -> st
  | Nt_on _ when s.tx_id < 0 -> st
  | Nt_on m -> (
    let c = Option.value ~default:unfenced (Imap.find_opt s.tx_id m.txs) in
    match s.ev.Event.kind with
    | Event.Tx_end ->
      let rev =
        if s.tx_depth >= 2 && unclosed c then
          warn ctx Warning.Missing_barrier_nested_tx s
            "inner transaction ends without a persist barrier; its writes are \
             not guaranteed durable before the outer transaction continues"
          :: m.rev
        else m.rev
      in
      Nt_on { txs = Imap.remove s.tx_id m.txs; rev }
    | Event.Write _ | Event.Flush _ | Event.Fence ->
      let c' = step_closing c s in
      if c' == c && Imap.mem s.tx_id m.txs then st
      else Nt_on { m with txs = Imap.add s.tx_id c' m.txs }
    | _ -> st)

let nested_finish = function Nt_off -> [] | Nt_on m -> List.rev m.rev

(* ------------------------------------------------------------------ *)
(* V: Mismatch between program semantics and model implementation

   Consecutive persist units (epochs under the epoch model when the path
   marks epochs, fence-delimited units otherwise) writing to different
   parts of the same persistent object indicate that a logically-atomic
   update was split across durability boundaries — the Figure 1 hashmap
   pattern. Updates under transaction protection are exempt (the
   transaction restores atomicity).

   State: the current unit's writes and the first write of each of its
   addresses by node, and the previous unit's flushed first writes by
   node. Units never interleave, so a unit is judged against its
   predecessor as soon as it is over. A later write to the same address
   can only pair where the first one does, and always after it, so the
   first writes decide every pair.

   Which units count depends on the whole path: under the epoch and
   strand models a path with an [Epoch_begin] is judged by epochs. Before
   a path's first [Epoch_begin] every event lies outside any epoch,
   which leaves the epoch view at its start, so the state follows the
   unit view until the first [Epoch_begin] and the epoch view from
   there; [finish] sees the view the whole path asks for. *)

(* The first write to one address in the current persist unit, and
   whether a later flush of the same unit covered it. *)
type first_write = { first : scoped; flushed_in_unit : bool }

type units = {
  prev_u : int;
  prev : (Dsa.Aaddr.t * scoped) list Imap.t;
  u : int;
  firsts : (Dsa.Aaddr.t * first_write) list Imap.t;
  ws : (scoped * Dsa.Aaddr.t) list; (* the unit's writes, reversed *)
  rev : Warning.t list;
}

type mismatch = { by_epoch : bool; view : units }

let units_start =
  { prev_u = -1; prev = Imap.empty; u = -1; firsts = Imap.empty; ws = []; rev = [] }

let mismatch_start = { by_epoch = false; view = units_start }

(* The writes of unit [v.u] against [v.prev], the first writes of unit
   [v.prev_u] persisted within their own unit — otherwise the pair is a
   deferred-durability case handled by the multiple-writes-at-once
   rule. *)
let judge ctx v =
  if v.prev_u < 0 || v.prev_u + 1 <> v.u then v.rev
  else
    (* repeated-protocol exemption: when the later unit also re-writes
       the earlier unit's address, the units are iterations of one
       update protocol (log appends, queue publishes in a loop), not a
       split atomic update *)
    let rewritten (a1, _) =
      List.exists (fun (a, _) -> Dsa.Aaddr.may_overlap a a1) (on_node v.firsts a1)
    in
    let prev =
      Imap.filter_map
        (fun _ l ->
          match List.filter (fun e -> not (rewritten e)) l with
          | [] -> None
          | l -> Some l)
        v.prev
    in
    if Imap.is_empty prev then v.rev
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
              "consecutive persist units update different parts of the same \
               persistent object (%a here, %a at %a); a crash between them \
               leaves the object half-updated"
              Dsa.Aaddr.pp a2 Dsa.Aaddr.pp a1 Nvmir.Loc.pp s1.ev.Event.loc
            :: acc
          | None -> acc)
        v.rev (List.rev v.ws)

let persisted firsts =
  Imap.filter_map
    (fun _ l ->
      match
        List.filter_map
          (fun (a, fw) -> if fw.flushed_in_unit then Some (a, fw.first) else None)
          l
      with
      | [] -> None
      | l -> Some l)
    firsts

let units_step ctx ~by_epoch v s =
  let unit_of s = if by_epoch then s.epoch else s.unit_ in
  let v =
    let u = unit_of s in
    if u >= 0 && u <> v.u then
      {
        prev_u = v.u;
        prev = persisted v.firsts;
        u;
        firsts = Imap.empty;
        ws = [];
        rev = judge ctx v;
      }
    else v
  in
  match s.ev.Event.kind with
  | Event.Write a when s.tx_depth = 0 && ((not by_epoch) || s.epoch >= 0) ->
    let firsts =
      if List.exists (fun (a', _) -> same_addr a' a) (on_node v.firsts a) then
        v.firsts
      else update v.firsts a (fun _ -> { first = s; flushed_in_unit = false })
    in
    { v with firsts; ws = (s, a) :: v.ws }
  | Event.Flush (b, _) when unit_of s >= 0 ->
    let newly (a, fw) =
      (not fw.flushed_in_unit) && Dsa.Aaddr.contained_in a b
    in
    let l = on_node v.firsts b in
    if List.exists newly l then
      let mark ((a, fw) as e) =
        if newly e then (a, { fw with flushed_in_unit = true }) else e
      in
      { v with firsts = set_node v.firsts b (List.map mark l) }
    else v
  | _ -> v

let mismatch_step ctx st s =
  let st =
    match (ctx.model, s.ev.Event.kind) with
    | (Model.Epoch | Model.Strand), Event.Epoch_begin when not st.by_epoch ->
      { by_epoch = true; view = units_start }
    | _ -> st
  in
  let view = units_step ctx ~by_epoch:st.by_epoch st.view s in
  if view == st.view then st else { st with view }

let mismatch_finish ctx st = List.rev (judge ctx st.view)

(* ------------------------------------------------------------------ *)
(* V: Data dependencies between strands (static over-approximation,
   strand model)

   Strand regions separated by a persist barrier are ordered; regions
   with no barrier between them may persist concurrently and must
   therefore touch disjoint addresses (Table 4, strand row). State: the
   open region's latest write per address by node, and the regions
   already over. A region is over when it ends or the next one begins;
   it is then checked against every earlier region, and the warnings
   come out by pair of regions in begin order. *)

type strand_region = {
  sr_ord : int; (* begin order on the path *)
  sr_id : int;
  sr_begin_unit : int; (* fence-delimited unit at strand begin *)
  sr_end_unit : int;
  sr_writes : (Dsa.Aaddr.t * scoped) list Imap.t;
      (* the latest write to each distinct address, by node *)
}

type strands =
  | Sd_off
  | Sd_on of {
      over : strand_region list; (* latest first *)
      open_ : strand_region option;
      begun : int;
      tagged : ((int * int) * Warning.t) list;
    }

let strands_start ctx =
  match ctx.model with
  | Model.Strict | Model.Epoch -> Sd_off
  | Model.Strand -> Sd_on { over = []; open_ = None; begun = 0; tagged = [] }

(* The latest write of [r2] to an address [r1] may also write. *)
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

(* Region [r] is over: check it against every earlier region. *)
let region_over ctx over tagged r =
  let concurrent r1 =
    r1.sr_id <> r.sr_id
    && not (r.sr_begin_unit > r1.sr_end_unit || r1.sr_begin_unit > r.sr_end_unit)
  in
  let tagged =
    List.fold_left
      (fun tagged r1 ->
        if not (concurrent r1) then tagged
        else
          match shared r1 r with
          | None -> tagged
          | Some (a2, s2) ->
            ( (r1.sr_ord, r.sr_ord),
              warn ctx Warning.Strand_dependence s2
                "strands %d and %d both write %a; dependent strands must not \
                 persist concurrently"
                r1.sr_id r.sr_id Dsa.Aaddr.pp a2 )
            :: tagged)
      tagged over
  in
  (r :: over, tagged)

let strands_step ctx st s =
  match st with
  | Sd_off -> st
  | Sd_on m -> (
    match (s.ev.Event.kind, m.open_) with
    | Event.Strand_begin n, _ ->
      let over, tagged =
        match m.open_ with
        | Some r -> region_over ctx m.over m.tagged r
        | None -> (m.over, m.tagged)
      in
      let r =
        {
          sr_ord = m.begun;
          sr_id = n;
          sr_begin_unit = s.unit_;
          sr_end_unit = s.unit_;
          sr_writes = Imap.empty;
        }
      in
      Sd_on { over; open_ = Some r; begun = m.begun + 1; tagged }
    | Event.Strand_end _, Some r ->
      let over, tagged =
        region_over ctx m.over m.tagged { r with sr_end_unit = s.unit_ }
      in
      Sd_on { m with over; open_ = None; tagged }
    | Event.Write a, Some r ->
      Sd_on
        { m with open_ = Some { r with sr_writes = update r.sr_writes a (fun _ -> s) } }
    | _ -> st)

let strands_finish ctx = function
  | Sd_off -> []
  | Sd_on m ->
    let tagged =
      match m.open_ with
      | Some r -> snd (region_over ctx m.over m.tagged r)
      | None -> m.tagged
    in
    List.map snd (List.sort (fun (p, _) (q, _) -> compare p q) tagged)

(* ------------------------------------------------------------------ *)
(* P: flush-coverage rules (Table 5), one machine:
   - multiple flushes to a persistent object (redundant write-backs)
   - flush an unmodified object / unmodified fields
   - persist the same object multiple times in a transaction
   - durable transaction without persistent writes

   State: dirty and clean addresses by node, and a stack of open
   transactions, each with its persisted addresses by node. A
   whole-object log is judged on the writes that follow it in its
   transaction, so its warning keeps its place in the output and is
   decided when the transaction closes (or the path ends). *)

(* Writes to a node that has a whole-object log in the transaction: the
   index of the latest whole-object write and of the latest write to
   each field. *)
type node_writes = { whole_at : int; field_at : (string * int) list }

(* A whole-object log of a struct with [wl_fields] fields; its warning's
   place in the output is keyed by the log's index. *)
type whole_log = { wl_at : scoped; wl_node : int; wl_fields : int }

type tx_state = {
  begin_event : scoped;
  written : bool;
  persisted : Dsa.Aaddr.t list Imap.t; (* logged or flushed here *)
  whole_logs : whole_log list;
  logged_nodes : node_writes Imap.t; (* the nodes of [whole_logs] *)
}

type emitted = Now of Warning.t | Deferred of int

type coverage = {
  out : emitted list; (* reversed *)
  dirty : Dsa.Aaddr.t list Imap.t; (* written, not yet flushed *)
  clean : Dsa.Aaddr.t list Imap.t; (* flushed since last overlapping write *)
  txs : tx_state list; (* innermost first *)
  decided : Warning.t Imap.t; (* whole-log warnings, by log index *)
}

let coverage_start =
  { out = []; dirty = Imap.empty; clean = Imap.empty; txs = []; decided = Imap.empty }

let distinct_fields addrs =
  List.sort_uniq compare
    (List.filter_map (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field) addrs)

let overlaps m b = List.exists (fun f -> Dsa.Aaddr.may_overlap f b) (on_node m b)

(* Logging a whole object whose fields are mostly untouched copies
   unmodified data into the undo log: decided when [tx] closes. *)
let judge_whole_logs ctx decided tx =
  List.fold_left
    (fun decided l ->
      let nw = Imap.find l.wl_node tx.logged_nodes in
      let written =
        List.length (List.filter (fun (_, at) -> at > l.wl_at.idx) nw.field_at)
      in
      match written with
      | 0 -> decided
      | _ when nw.whole_at > l.wl_at.idx -> decided
      | _ when written < l.wl_fields ->
        Imap.add l.wl_at.idx
          (warn ctx Warning.Flush_unmodified l.wl_at
             "whole object logged but only %d of %d fields are modified in \
              the transaction; unmodified fields are copied to the undo log"
             written l.wl_fields)
          decided
      | _ -> decided)
    decided tx.whole_logs

let coverage_write st s (a : Dsa.Aaddr.t) =
  let clean =
    match on_node st.clean a with
    | [] -> st.clean
    | l -> (
      match List.filter (fun f -> not (Dsa.Aaddr.may_overlap f a)) l with
      | kept when List.length kept = List.length l -> st.clean
      | kept -> set_node st.clean a kept)
  in
  let note tx =
    let logged = Imap.find_opt a.Dsa.Aaddr.node tx.logged_nodes in
    if tx.written && logged = None then tx
    else
      let logged_nodes =
        match logged with
        | None -> tx.logged_nodes
        | Some nw ->
          let nw =
            match a.Dsa.Aaddr.field with
            | None -> { nw with whole_at = s.idx }
            | Some f ->
              { nw with field_at = (f, s.idx) :: List.remove_assoc f nw.field_at }
          in
          Imap.add a.Dsa.Aaddr.node nw tx.logged_nodes
      in
      { tx with written = true; logged_nodes }
  in
  { st with dirty = add_addr st.dirty a; clean; txs = map_same note st.txs }

let coverage_log ctx st s (b : Dsa.Aaddr.t) =
  match st.txs with
  | [] -> st
  | tx :: outer ->
    let out =
      if overlaps tx.persisted b then
        Now
          (warn ctx Warning.Persist_same_object_in_tx s
             "%a is logged into the transaction more than once" Dsa.Aaddr.pp b)
        :: st.out
      else st.out
    in
    let tx = { tx with persisted = add_addr tx.persisted b } in
    let node = b.Dsa.Aaddr.node in
    let out, tx =
      match b.Dsa.Aaddr.field with
      | Some _ -> (out, tx)
      | None -> (
        match field_count ctx node with
        | Some nfields when nfields > 1 ->
          ( Deferred s.idx :: out,
            {
              tx with
              whole_logs =
                { wl_at = s; wl_node = node; wl_fields = nfields } :: tx.whole_logs;
              logged_nodes =
                (if Imap.mem node tx.logged_nodes then tx.logged_nodes
                 else
                   Imap.add node { whole_at = -1; field_at = [] } tx.logged_nodes);
            } )
        | Some _ | None -> (out, tx))
    in
    { st with out; txs = tx :: outer }

let coverage_flush ctx st s (b : Dsa.Aaddr.t) origin =
  let covered =
    List.filter (fun w -> Dsa.Aaddr.may_overlap w b) (on_node st.dirty b)
  in
  let out = st.out in
  let redundant = covered = [] && overlaps st.clean b in
  let out =
    if not redundant then out
    else
      match st.txs with
      | tx :: _ when overlaps tx.persisted b ->
        Now
          (warn ctx Warning.Persist_same_object_in_tx s
             "%a is persisted again within the same transaction without an \
              intervening modification"
             Dsa.Aaddr.pp b)
        :: out
      | _ ->
        Now
          (warn ctx Warning.Multiple_flushes s
             "redundant write-back: %a was already flushed and not modified \
              since"
             Dsa.Aaddr.pp b)
        :: out
  in
  let out =
    if redundant || covered <> [] then out
    else
      match origin with
      | Event.From_persist ->
        Now
          (warn ctx Warning.Durable_tx_no_writes s
             "durable operation persists %a but no persistent write precedes \
              it on this path"
             Dsa.Aaddr.pp b)
        :: out
      | Event.Plain ->
        Now
          (warn ctx Warning.Flush_unmodified s
             "flush of %a without any preceding modification writes back \
              unmodified data"
             Dsa.Aaddr.pp b)
        :: out
  in
  (* whole-object flush covering only some written fields *)
  let out =
    if covered = [] || b.Dsa.Aaddr.field <> None then out
    else
      match field_count ctx b.Dsa.Aaddr.node with
      | Some nfields when nfields > 1 ->
        let whole_obj_write =
          List.exists (fun (a : Dsa.Aaddr.t) -> a.Dsa.Aaddr.field = None) covered
        in
        let written = distinct_fields covered in
        if (not whole_obj_write) && List.length written < nfields then
          Now
            (warn ctx Warning.Flush_unmodified s
               "whole object flushed while only %d of %d fields were \
                modified; unmodified fields are written back"
               (List.length written) nfields)
          :: out
        else out
      | Some _ | None -> out
  in
  (* record transaction-scoped persists *)
  let txs =
    match st.txs with
    | tx :: outer ->
      let persisted = add_addr tx.persisted b in
      if persisted == tx.persisted then st.txs else { tx with persisted } :: outer
    | [] -> st.txs
  in
  let dirty =
    match on_node st.dirty b with
    | [] -> st.dirty
    | l -> (
      match List.filter (fun w -> not (Dsa.Aaddr.contained_in w b)) l with
      | kept when List.length kept = List.length l -> st.dirty
      | kept -> set_node st.dirty b kept)
  in
  { st with out; txs; clean = add_addr st.clean b; dirty }

let coverage_step ctx st s =
  match s.ev.Event.kind with
  | Event.Write a -> coverage_write st s a
  | Event.Log b -> coverage_log ctx st s b
  | Event.Flush (b, origin) -> coverage_flush ctx st s b origin
  | Event.Tx_begin ->
    {
      st with
      txs =
        {
          begin_event = s;
          written = false;
          persisted = Imap.empty;
          whole_logs = [];
          logged_nodes = Imap.empty;
        }
        :: st.txs;
    }
  | Event.Tx_end -> (
    match st.txs with
    | [] -> st
    | tx :: outer ->
      let out =
        if tx.written then st.out
        else
          Now
            (warn ctx Warning.Durable_tx_no_writes tx.begin_event
               "durable transaction commits without any persistent write")
          :: st.out
      in
      { st with out; txs = outer; decided = judge_whole_logs ctx st.decided tx })
  | Event.Fence | Event.Epoch_begin | Event.Epoch_end | Event.Strand_begin _
  | Event.Strand_end _ | Event.Call_mark _ | Event.Ret_mark _ ->
    st

let coverage_finish ctx st =
  let decided = List.fold_left (judge_whole_logs ctx) st.decided st.txs in
  List.rev st.out
  |> List.filter_map (function
       | Now w -> Some w
       | Deferred at -> Imap.find_opt at decided)

(* ------------------------------------------------------------------ *)
(* The rules over a scoped list: each folds its machine. *)

let fold_rule start step finish scoped =
  finish (List.fold_left step start scoped)

let check_unflushed_write ctx scoped =
  fold_rule unflushed_start unflushed_step (unflushed_finish ctx) scoped

let check_multiple_writes_at_once ctx scoped =
  fold_rule (multiple_start ctx) (multiple_step ctx) multiple_finish scoped

let check_missing_persist_barrier ctx scoped =
  fold_rule (barrier_start ctx) (barrier_step ctx) barrier_finish scoped

let check_missing_barrier_nested_tx ctx scoped =
  fold_rule (nested_start ctx) (nested_step ctx) nested_finish scoped

let check_semantic_mismatch ctx scoped =
  fold_rule mismatch_start (mismatch_step ctx) (mismatch_finish ctx) scoped

let check_strand_dependence ctx scoped =
  fold_rule (strands_start ctx) (strands_step ctx) (strands_finish ctx) scoped

let check_flush_coverage ctx scoped =
  fold_rule coverage_start (coverage_step ctx) (coverage_finish ctx) scoped

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

(* Both counters cover every engine: [check_trace] and the streaming
   walk both run [Incremental]. [events_scanned] sums the length of each
   completed path; [events_stepped] counts the events the machine
   actually stepped, once per distinct path prefix under the streaming
   walk, so the ratio of the two is the prefix sharing. *)
let m_events_scanned =
  Obs.Metrics.counter "rules.events_scanned"
    ~desc:"scoped events handed to the rule set, summed over completed paths"

let m_events_stepped =
  Obs.Metrics.counter "rules.events_stepped"
    ~desc:"events the rule machine stepped, each shared path prefix once"

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


(* ------------------------------------------------------------------ *)
(* Incremental checking: all seven rules stepped together.

   The checker threads a [state] through its path walk: every event is
   scoped and handed to each rule's machine once, and because the state
   is a persistent value, a walk that forks at a branch point reuses the
   state for every child — the rules step each distinct path prefix
   once, not once per path through it. [finish] only emits: the
   decisions that wait for the end of the path, each rule's warnings in
   path order, then the rules in catalog order, and the static
   witnesses, built from the path's scoped events when witness capture
   is on. *)

module Incremental = struct
  type state = {
    ctx : ctx;
    scope : scope;
    rev_scoped : scoped list; (* shared with forked siblings *)
    unflushed : unflushed;
    multiple : multiple;
    barrier : barrier;
    nested : nested;
    mismatch : mismatch;
    strands : strands;
    coverage : coverage;
  }

  let start ctx =
    {
      ctx;
      scope = scope_start;
      rev_scoped = [];
      unflushed = unflushed_start;
      multiple = multiple_start ctx;
      barrier = barrier_start ctx;
      nested = nested_start ctx;
      mismatch = mismatch_start;
      strands = strands_start ctx;
      coverage = coverage_start;
    }

  let step st (e : Event.t) =
    if Obs.enabled () then Obs.Metrics.incr m_events_stepped;
    let ctx = st.ctx in
    let scope, s = scope_step st.scope e in
    {
      ctx;
      scope;
      rev_scoped = s :: st.rev_scoped;
      unflushed = unflushed_step st.unflushed s;
      multiple = multiple_step ctx st.multiple s;
      barrier = barrier_step ctx st.barrier s;
      nested = nested_step ctx st.nested s;
      mismatch = mismatch_step ctx st.mismatch s;
      strands = strands_step ctx st.strands s;
      coverage = coverage_step ctx st.coverage s;
    }

  let feed st trace = List.fold_left step st trace

  let finish st =
    let ctx = st.ctx in
    if Obs.enabled () then Obs.Metrics.add m_events_scanned st.scope.next_idx;
    let warnings =
      List.concat
        [
          unflushed_finish ctx st.unflushed;
          multiple_finish st.multiple;
          barrier_finish st.barrier;
          nested_finish st.nested;
          mismatch_finish ctx st.mismatch;
          strands_finish ctx st.strands;
          coverage_finish ctx st.coverage;
        ]
    in
    if warnings <> [] && Witness.enabled () then
      attach_witnesses (List.rev st.rev_scoped) warnings
    else warnings
end

(* Run every applicable rule over one trace. *)
let check_trace ctx (trace : Trace.t) : Warning.t list =
  Incremental.(finish (feed (start ctx) trace))
