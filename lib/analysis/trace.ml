(* Trace collection (§4.3).

   Phase 1 (intra-procedural): depth-first path enumeration over each
   function's CFG, bounded by [Config.loop_bound] back-edge traversals
   and [Config.max_paths] paths. Each path yields one trace whose events
   are resolved through the DSG; writes and flushes that the DSG proves
   volatile are dropped, so traces contain only persistent operations.

   Phase 2 (inter-procedural): the call graph is traversed so that
   callee traces are spliced into caller traces at call sites
   (Figure 11), bounded by [Config.recursion_bound] on the call chain
   and [Config.expansion_fanout] callee traces per site. Call/return
   provenance markers are kept in the merged trace.

   Two engines share these phases. [collect] is the original
   materializing pipeline: every root trace exists as a list before any
   rule runs; it survives as the differential oracle behind
   [Config.Materialized]. [stream] walks a root's paths lazily and
   threads a caller-supplied state through them instead of building
   event lists: a branch point's state is shared by every path below
   it, so a consumer stepping per event (the rule machine) does its
   work once per distinct path prefix. Both enumerate identical traces
   in identical order. *)

type t = Event.t list

(* Registry instruments. "Paths expanded" are fully-merged root paths
   (what the rules consume), in both engines; memo hits/misses count
   call-site lookups against [collect]'s interprocedural memo. The
   streaming walk keeps no memo: it steps a callee once per distinct
   prefix that reaches the call. *)
let m_paths =
  Obs.Metrics.counter "trace.paths_expanded"
    ~desc:"fully-expanded root paths handed to the rules"

let m_memo_hits =
  Obs.Metrics.counter "trace.memo_hits"
    ~desc:"call-site expansions served from the interprocedural memo (materialized engine)"

let m_memo_misses =
  Obs.Metrics.counter "trace.memo_misses"
    ~desc:"call-site lookups that had to build (or lacked) a memo entry (materialized engine)"

(* Events of one instruction, in order. [Persist] lowers to flush;fence. *)
let events_of_instr dsg ~fname (i : Nvmir.Instr.t) : Event.t list =
  let ev kind = Event.make ~fname ~loc:i.loc kind in
  match i.kind with
  | Nvmir.Instr.Store { dst; _ } ->
    let a = Dsa.Dsg.resolve dsg ~fname dst in
    if Dsa.Dsg.is_persistent_addr dsg a then [ ev (Event.Write a) ] else []
  | Nvmir.Instr.Flush { target; extent } ->
    let a = Dsa.Dsg.resolve_extent dsg ~fname target extent in
    if Dsa.Dsg.is_persistent_addr dsg a then
      [ ev (Event.Flush (a, Event.Plain)) ]
    else []
  | Nvmir.Instr.Persist { target; extent } ->
    let a = Dsa.Dsg.resolve_extent dsg ~fname target extent in
    if Dsa.Dsg.is_persistent_addr dsg a then
      [ ev (Event.Flush (a, Event.From_persist)); ev Event.Fence ]
    else []
  | Nvmir.Instr.Tx_add { target; extent } ->
    let a = Dsa.Dsg.resolve_extent dsg ~fname target extent in
    if Dsa.Dsg.is_persistent_addr dsg a then [ ev (Event.Log a) ] else []
  | Nvmir.Instr.Fence -> [ ev Event.Fence ]
  | Nvmir.Instr.Tx_begin -> [ ev Event.Tx_begin ]
  | Nvmir.Instr.Tx_end -> [ ev Event.Tx_end ]
  | Nvmir.Instr.Epoch_begin -> [ ev Event.Epoch_begin ]
  | Nvmir.Instr.Epoch_end -> [ ev Event.Epoch_end ]
  | Nvmir.Instr.Strand_begin n -> [ ev (Event.Strand_begin n) ]
  | Nvmir.Instr.Strand_end n -> [ ev (Event.Strand_end n) ]
  | Nvmir.Instr.Call { callee; _ } -> [ ev (Event.Call_mark callee) ]
  (* CRC guards are media-integrity reads, not write-back events: the
     static rules deliberately do not see them (the recovery tier owns
     that class) *)
  | Nvmir.Instr.Load _ | Nvmir.Instr.Assign _ | Nvmir.Instr.Binop _
  | Nvmir.Instr.Alloc _ | Nvmir.Instr.Addr_of _ | Nvmir.Instr.Crc_of _
  | Nvmir.Instr.Crc_check _ | Nvmir.Instr.Comment _ -> []

(* First [n] elements, stopping as soon as they are found — the caller's
   lists are capped cross-products, so scanning past [n] is wasted. *)
let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

(* ------------------------------------------------------------------ *)
(* Per-block event precomputation (streaming engine).

   The materializing walk below re-resolves every instruction through
   the DSG once per path that crosses its block — for a function with P
   paths over B shared blocks that is P×B resolutions of identical
   results (resolution is idempotent after the DSG build: every operand
   was already resolved during the local phase). The streaming engine
   resolves each block once up front and replays the cached events.

   Abstract addresses are hash-consed through [pool] while caching, so
   the thousands of structurally-equal addresses a hot block contributes
   across paths collapse to one allocation each. *)

type block_events = (string, (string, Event.t list) Hashtbl.t) Hashtbl.t

let intern_event pool (e : Event.t) : Event.t =
  let intern a =
    match Hashtbl.find_opt pool a with
    | Some shared -> shared
    | None ->
      Hashtbl.add pool a a;
      a
  in
  match e.Event.kind with
  | Event.Write a -> { e with Event.kind = Event.Write (intern a) }
  | Event.Flush (a, o) -> { e with Event.kind = Event.Flush (intern a, o) }
  | Event.Log a -> { e with Event.kind = Event.Log (intern a) }
  | Event.Fence | Event.Tx_begin | Event.Tx_end | Event.Epoch_begin
  | Event.Epoch_end | Event.Strand_begin _ | Event.Strand_end _
  | Event.Call_mark _ | Event.Ret_mark _ -> e

let precompute_block_events dsg prog : block_events =
  let tables = Hashtbl.create 64 in
  let pool : (Dsa.Aaddr.t, Dsa.Aaddr.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun f ->
      let fname = Nvmir.Func.name f in
      let per_block = Hashtbl.create 16 in
      List.iter
        (fun (b : Nvmir.Func.block) ->
          let evs =
            List.concat_map
              (fun i ->
                List.map (intern_event pool) (events_of_instr dsg ~fname i))
              b.instrs
          in
          Hashtbl.replace per_block b.label evs)
        f.Nvmir.Func.blocks;
      Hashtbl.replace tables fname per_block)
    (Nvmir.Prog.funcs prog);
  tables

(* ------------------------------------------------------------------ *)
(* Phase 1, materialized: enumerate bounded paths through [func],
   accumulating events. Paths containing persistent operations are
   explored first when a cap cut is needed — we achieve this cheaply by
   enumerating in CFG order and capping, which suffices for corpus-scale
   functions. *)
let collect_function (config : Config.t) dsg (func : Nvmir.Func.t) : t list =
  let cfg = Graphs.Cfg.of_func func in
  let loops = Graphs.Loops.compute cfg in
  let fname = Nvmir.Func.name func in
  let block_evs block =
    List.concat_map (events_of_instr dsg ~fname) block.Nvmir.Func.instrs
  in
  let traces = ref [] in
  let count = ref 0 in
  (* per-(back-)edge traversal counts for the path being walked; the
     count is undone after each branch returns, so sibling paths see
     the state their common prefix established — the same per-path
     semantics the old immutable assoc list gave, without its O(edges)
     lookups *)
  let edge_counts : (string * string, int) Hashtbl.t = Hashtbl.create 8 in
  let rec walk label acc =
    if !count >= config.max_paths then ()
    else
      match Graphs.Cfg.block cfg label with
      | None -> ()
      | Some block ->
        let acc = List.rev_append (block_evs block) acc in
        let follow target =
          if Graphs.Loops.is_back_edge loops ~source:label ~target then begin
            let key = (label, target) in
            let taken = Option.value ~default:0 (Hashtbl.find_opt edge_counts key) in
            if taken < config.loop_bound then begin
              Hashtbl.replace edge_counts key (taken + 1);
              walk target acc;
              Hashtbl.replace edge_counts key taken
            end
          end
          else walk target acc
        in
        (match block.term with
        | Nvmir.Func.Ret _ ->
          if !count < config.max_paths then begin
            incr count;
            traces := List.rev acc :: !traces
          end
        | Nvmir.Func.Br l -> follow l
        | Nvmir.Func.Cond_br { then_lbl; else_lbl; _ } ->
          follow then_lbl;
          follow else_lbl)
  in
  walk (Graphs.Cfg.entry cfg) [];
  List.rev !traces

(* ------------------------------------------------------------------ *)
(* Phase 2: splice callee traces into caller traces at call sites.

   Expansion is memoized bottom-up over the call graph (callees first,
   the Figure 11 merge order), so each function's merged traces are
   computed once. Call marks whose callee expansion is not yet available
   — the back edges of recursive cycles — stay unexpanded; functions in
   cyclic SCCs are then re-expanded [Config.recursion_bound] times, each
   pass splicing the previous pass's results, which bounds recursion
   unrolling exactly like §4.3 describes. *)

let expand_with (config : Config.t) ~memo (trace : t) : t list =
  (* the path cap is applied at every combination point — the
     cross-product of call-site expansions would otherwise materialize
     exponentially many traces before any cap could trim them *)
  let cap = config.max_paths in
  let rec expand_trace trace =
    match trace with
    | [] -> [ [] ]
    | ({ Event.kind = Event.Call_mark callee; fname; loc } as ev) :: rest -> (
      let rests = take cap (expand_trace rest) in
      match Hashtbl.find_opt memo callee with
      | Some callee_traces when callee_traces <> [] ->
        Obs.Metrics.incr m_memo_hits;
        let callee_traces = take config.expansion_fanout callee_traces in
        take cap
          (List.concat_map
             (fun ct ->
               List.map
                 (fun r ->
                   (ev :: ct)
                   @ (Event.make ~fname ~loc (Event.Ret_mark callee) :: r))
                 rests)
             callee_traces)
      | Some _ | None ->
        Obs.Metrics.incr m_memo_misses;
        List.map (fun r -> ev :: r) rests)
    | ev :: rest -> List.map (fun r -> ev :: r) (expand_trace rest)
  in
  take cap (expand_trace trace)

(* Functions in recursive SCCs (singleton SCCs only count when
   self-calling). *)
let cyclic_funcs cg =
  List.concat_map
    (fun scc ->
      match scc with
      | [ f ] when not (List.mem f (Graphs.Callgraph.callees cg f)) -> []
      | fs -> fs)
    (Graphs.Callgraph.sccs cg)

(* Phase-2 driver: intra-procedural traces of every function, then
   bottom-up memoized expansion. *)
let build_memo (config : Config.t) dsg prog =
  let intra = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Hashtbl.replace intra (Nvmir.Func.name f) (collect_function config dsg f))
    (Nvmir.Prog.funcs prog);
  let cg = Graphs.Callgraph.of_prog prog in
  let memo : (string, t list) Hashtbl.t = Hashtbl.create 64 in
  let expand_function fname =
    let own = Option.value ~default:[] (Hashtbl.find_opt intra fname) in
    List.concat_map (expand_with config ~memo) own
    |> take config.max_paths
  in
  List.iter
    (fun fname -> Hashtbl.replace memo fname (expand_function fname))
    (Graphs.Callgraph.postorder cg);
  (* bounded unrolling for recursive components *)
  let cyclic = cyclic_funcs cg in
  if cyclic <> [] then
    for _ = 2 to config.recursion_bound do
      List.iter
        (fun fname -> Hashtbl.replace memo fname (expand_function fname))
        cyclic
    done;
  (cg, memo)

let resolve_roots ~roots cg prog =
  match roots with
  | Some rs -> rs
  | None -> (
    match Graphs.Callgraph.roots cg with
    | [] -> Nvmir.Prog.func_names prog
    | rs -> rs)

(* The root list a rootless [collect]/[stream] would enumerate, in that
   same order — the serve cache keys its per-root entries off this. *)
let default_roots prog =
  resolve_roots ~roots:None (Graphs.Callgraph.of_prog prog) prog

(* Collect fully expanded traces for the given root functions (defaults
   to the call-graph roots: functions never called from the program). *)
let collect ?(config = Config.default) ?roots dsg prog :
    (string * t list) list =
  let cg, memo = build_memo config dsg prog in
  let roots = resolve_roots ~roots cg prog in
  List.map
    (fun r ->
      let ts = Option.value ~default:[] (Hashtbl.find_opt memo r) in
      if Obs.enabled () then Obs.Metrics.add m_paths (List.length ts);
      (r, ts))
    roots

(* ------------------------------------------------------------------ *)
(* Streaming: one walk over a root's merged paths that threads a
   caller-supplied state in place of the event list.

   [stream] compiles every function once: the precomputed events of each
   block, split at its call marks, and its successor edges with their
   back-edge identities. A walk runs [collect_function]'s bounded DFS
   over that, with an explicit frame stack (pushing the else frame below
   the then frame keeps the recursive order) and with the states of
   every expansion of the path so far in place of its event
   accumulator. A call mark steps each state into the callee's walk from
   that state, so callee events are stepped once per distinct prefix
   that reaches the call, and the expansions come out callee-major,
   [expand_with]'s order. A branch point's states are memoized and
   shared by every child, so each distinct path prefix is stepped once,
   not once per path through it. Caps are applied as [expand_with]
   applies them: at most [expansion_fanout] callee paths per call site
   and [max_paths] paths per root; every state reaching a call site
   yields at least one expansion, so taking the first [max_paths] at the
   end cuts where capping every cross-product does.

   Recursive cycles keep their bounded re-expansion: the cyclic
   functions' paths are materialized through the same walk (with the
   reversed event list as the state) before [stream] returns, and a
   call into a cycle replays them. Everything the walks read is built
   before [stream] returns and only read afterwards, so distinct roots
   can be walked from distinct domains concurrently (after
   [Dsa.Arena.compress]); the memoized branch states live inside one
   walk. *)

type stats = {
  mutable peak_live : int;  (* max simultaneously-live path frames *)
  mutable paths : int;
  mutable events : int;  (* non-marker events across yielded paths *)
}

let fresh_stats () = { peak_live = 0; paths = 0; events = 0 }

(* A block's events between call marks, and its call marks. *)
type seg =
  | Events of Event.t list * int  (* the events, their non-marker count *)
  | Call of { mark : Event.t; ret : Event.t; callee : string }

type exit =
  | Return
  | Succs of (int * int) list
      (* (target block, or -1 when the label names none; back-edge id,
         or -1), then before else *)

type compiled = { blocks : (seg list * exit) array; entry : int }

let non_markers evs =
  List.fold_left (fun n e -> if Event.is_marker e then n else n + 1) 0 evs

let segments evs =
  let events rev segs =
    match rev with
    | [] -> segs
    | _ ->
      let evs = List.rev rev in
      Events (evs, non_markers evs) :: segs
  in
  let rec go rev segs = function
    | [] -> List.rev (events rev segs)
    | ({ Event.kind = Event.Call_mark callee; fname; loc } as mark) :: rest ->
      let ret = Event.make ~fname ~loc (Event.Ret_mark callee) in
      go [] (Call { mark; ret; callee } :: events rev segs) rest
    | e :: rest -> go (e :: rev) segs rest
  in
  go [] [] evs

let compile (events : block_events) (func : Nvmir.Func.t) : compiled =
  let cfg = Graphs.Cfg.of_func func in
  let loops = Graphs.Loops.compute cfg in
  let per_block = Hashtbl.find_opt events (Nvmir.Func.name func) in
  let blocks = Array.of_list func.Nvmir.Func.blocks in
  (* a label names its first block, as [Cfg.block] resolves it *)
  let index = Hashtbl.create (Array.length blocks) in
  Array.iteri
    (fun i (b : Nvmir.Func.block) ->
      if not (Hashtbl.mem index b.label) then Hashtbl.add index b.label i)
    blocks;
  let back_ids = Hashtbl.create 4 in
  let edge source target =
    let back =
      if Graphs.Loops.is_back_edge loops ~source ~target then begin
        match Hashtbl.find_opt back_ids (source, target) with
        | Some id -> id
        | None ->
          let id = Hashtbl.length back_ids in
          Hashtbl.add back_ids (source, target) id;
          id
      end
      else -1
    in
    (Option.value ~default:(-1) (Hashtbl.find_opt index target), back)
  in
  let compile_block (b : Nvmir.Func.block) =
    let evs =
      Option.value ~default:[]
        (Option.bind per_block (fun t -> Hashtbl.find_opt t b.label))
    in
    ( segments evs,
      match b.term with
      | Nvmir.Func.Ret _ -> Return
      | Nvmir.Func.Br l -> Succs [ edge b.label l ]
      | Nvmir.Func.Cond_br { then_lbl; else_lbl; _ } ->
        Succs [ edge b.label then_lbl; edge b.label else_lbl ] )
  in
  {
    blocks = Array.map compile_block blocks;
    entry = Hashtbl.find index (Graphs.Cfg.entry cfg);
  }

(* What a call site splices: a function to walk, the materialized paths
   of a recursive cycle, or nothing (the call mark stays). *)
type target = Walk of compiled | Paths of t list | Keep

(* The merged paths of [fn] from each of [states], in order, as
   (non-marker events, state) pairs. [lookup] resolves [fn]'s own call
   sites, [nested] those of the functions it calls; [live] sees the
   frame-stack depth at every frame pop. *)
let rec walk_function (config : Config.t) ~step ~nested ~lookup
    ?(live = ignore) (fn : compiled) states =
  let rec next stack depth () =
    match stack with
    | [] -> Seq.Nil
    | (block, states, edges) :: stack -> (
      (* live paths right now: the in-flight frame plus the suspended ones *)
      live depth;
      let depth = depth - 1 in
      if block < 0 then next stack depth ()
      else
        let segs, exit = fn.blocks.(block) in
        let states = advance config ~step ~nested ~lookup states segs in
        match exit with
        | Return -> Seq.append states (next stack depth) ()
        | Succs succs ->
          let states =
            match succs with [ _ ] -> states | _ -> Seq.memoize states
          in
          let follow (target, back) (stack, depth) =
            if back < 0 then ((target, states, edges) :: stack, depth + 1)
            else
              let taken = Option.value ~default:0 (List.assoc_opt back edges) in
              if taken < config.loop_bound then
                ( (target, states, (back, taken + 1) :: List.remove_assoc back edges)
                  :: stack,
                  depth + 1 )
              else (stack, depth)
          in
          let stack, depth = List.fold_right follow succs (stack, depth) in
          next stack depth ())
  in
  next [ (fn.entry, states, []) ] 1

(* Step every state through one block's segments. *)
and advance config ~step ~nested ~lookup states segs =
  List.fold_left
    (fun states seg ->
      match seg with
      | Events (evs, n) ->
        Seq.map (fun (c, st) -> (c + n, List.fold_left step st evs)) states
      | Call { mark; ret; callee } ->
        let target = lookup callee in
        Seq.concat_map
          (fun (c, st) ->
            let st = step st mark in
            match splice config ~step ~nested target (c, st) () with
            | Seq.Nil -> Seq.return (c, st)
            | Seq.Cons _ as ends ->
              Seq.map (fun (c, st) -> (c, step st ret)) (fun () -> ends))
          states)
    states segs

(* The first [expansion_fanout] paths of a call site's target, stepped
   from [state]. *)
and splice (config : Config.t) ~step ~nested target (c, st) =
  (* [expand_with] takes [expansion_fanout] of a callee's paths, which
     the memo already capped at [max_paths] *)
  let fanout = min config.expansion_fanout config.max_paths in
  match target with
  | Keep -> Seq.empty
  | Paths ts ->
    Seq.map
      (fun tr -> (c + non_markers tr, List.fold_left step st tr))
      (Seq.take fanout (List.to_seq ts))
  | Walk fn ->
    Seq.take fanout
      (walk_function config ~step ~nested ~lookup:nested fn (Seq.return (c, st)))

let cons_event acc e = e :: acc

(* The materialized paths of the recursive cycles: [pass1] is their
   first (postorder) expansion, which every acyclic caller splices;
   [cur] is the bounded-unrolling fixpoint, which a cyclic root reads
   and which each re-expansion pass splices for calls within the
   cycles. *)
let materialize_cycles (config : Config.t) cg ~compiled ~cyclic ~nested
    ~pass1 =
  let materialize cur fname =
    match Hashtbl.find_opt compiled fname with
    | None -> []
    | Some fn ->
      let lookup name =
        match Hashtbl.find_opt cur name with
        | Some ts -> Paths ts
        | None -> nested name
      in
      walk_function config ~step:cons_event ~nested ~lookup fn
        (Seq.return (0, []))
      |> Seq.take config.max_paths
      |> Seq.map (fun (_, rev) -> List.rev rev)
      |> List.of_seq
  in
  List.iter
    (fun fname ->
      if List.mem fname cyclic then
        Hashtbl.replace pass1 fname (materialize pass1 fname))
    (Graphs.Callgraph.postorder cg);
  let cur = Hashtbl.copy pass1 in
  if cyclic <> [] then
    for _ = 2 to config.recursion_bound do
      List.iter
        (fun fname -> Hashtbl.replace cur fname (materialize cur fname))
        cyclic
    done;
  cur

type source = {
  root : string;
  s_stats : stats;
  traces : t Seq.t;
  walk : 'a. 'a -> ('a -> Event.t -> 'a) -> 'a Seq.t;
}

(* A root's walk. A root nothing calls runs the lazy DFS, and its stats
   observe the live frames. A recursive root replays its materialized
   fixpoint; a root called from elsewhere walks like a callee, and its
   live paths are counted as its intra-procedural paths. *)
let stream ?(config = Config.default) ?roots dsg prog : source list =
  let events = precompute_block_events dsg prog in
  let cg = Graphs.Callgraph.of_prog prog in
  let requested = resolve_roots ~roots cg prog in
  let never_called = Graphs.Callgraph.roots cg in
  let cyclic = cyclic_funcs cg in
  let compiled = Hashtbl.create 64 in
  List.iter
    (fun f -> Hashtbl.replace compiled (Nvmir.Func.name f) (compile events f))
    (Nvmir.Prog.funcs prog);
  let pass1 : (string, t list) Hashtbl.t = Hashtbl.create 8 in
  let nested name =
    if List.mem name cyclic then
      match Hashtbl.find_opt pass1 name with Some ts -> Paths ts | None -> Keep
    else
      match Hashtbl.find_opt compiled name with Some fn -> Walk fn | None -> Keep
  in
  let cyclic_cur = materialize_cycles config cg ~compiled ~cyclic ~nested ~pass1 in
  List.map
    (fun r ->
      let s_stats = fresh_stats () in
      let yielded (c, st) =
        Obs.Metrics.incr m_paths;
        s_stats.paths <- s_stats.paths + 1;
        s_stats.events <- s_stats.events + c;
        st
      in
      let root =
        match Hashtbl.find_opt compiled r with
        | _ when List.mem r cyclic ->
          let ts = Option.value ~default:[] (Hashtbl.find_opt cyclic_cur r) in
          s_stats.peak_live <- List.length ts;
          Paths ts
        | None -> Keep
        | Some fn when List.mem r never_called -> Walk fn
        | Some fn ->
          s_stats.peak_live <-
            Seq.length
              (Seq.take config.max_paths
                 (walk_function config ~step:(fun () _ -> ()) ~nested
                    ~lookup:(fun _ -> Keep) fn (Seq.return (0, ()))));
          Walk fn
      in
      let live depth =
        if depth > s_stats.peak_live then s_stats.peak_live <- depth
      in
      let live = if List.mem r never_called then live else ignore in
      let walk init step =
        match root with
        | Keep -> Seq.empty
        | Paths ts ->
          Seq.map
            (fun tr -> yielded (non_markers tr, List.fold_left step init tr))
            (List.to_seq ts)
        | Walk fn ->
          walk_function config ~step ~nested ~lookup:nested ~live fn
            (Seq.return (0, init))
          |> Seq.take config.max_paths |> Seq.map yielded
      in
      {
        root = r;
        s_stats;
        traces = (fun () -> Seq.map List.rev (walk [] cons_event) ());
        walk;
      })
    requested

let pp ppf (trace : t) =
  Fmt.pf ppf "@[<v 2>trace (%d events)@ %a@]" (List.length trace)
    Fmt.(list ~sep:(any "@ ") Event.pp)
    trace

(* Number of non-marker events; used by bench reporting. *)
let length trace = List.length (List.filter (fun e -> not (Event.is_marker e)) trace)
