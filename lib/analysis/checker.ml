(* The static checker (steps 2–4 of Figure 8): builds the DSG, collects
   interprocedural traces from the analysis roots, applies the rule set
   for the selected persistency model, and reports deduplicated
   warnings.

   Two engines produce the same warnings (a differential test enforces
   it on the whole corpus):

   - [Config.Streaming] (default): the [Rules.Incremental] machine is
     folded over each root's path walk ([Trace.source.walk]). A branch
     point's state is shared by every path below it, so the rules step
     each distinct path prefix once, not once per path through it; a
     path's warnings come out as it ends, peak memory is O(live paths),
     and independent roots are checked concurrently on the shared
     domain pool.
   - [Config.Materialized]: the original collect-everything-then-check
     pipeline, kept as the oracle; it steps the machine over every path
     from the start.

   Each of the seven rules is one pass keeping its address state in
   buckets keyed by DSG node ([Rules]), so a step costs time in the
   addresses it touches: the streaming check costs time linear in the
   distinct path prefixes, the materialized one in the summed path
   lengths. *)

type result = {
  model : Model.t;
  warnings : Warning.t list;
  trace_count : int;
  event_count : int;
  peak_paths : int; (* max simultaneously-live paths across roots *)
  dsg : Dsa.Dsg.t;
}

let m_roots =
  Obs.Metrics.counter "checker.roots_checked"
    ~desc:"analysis roots run through the rule set"

let m_warnings =
  Obs.Metrics.counter "checker.warning_total"
    ~desc:"deduplicated warnings (labelled rule=R,model=M)"

let m_root_ns =
  Obs.Metrics.histogram "checker.root_latency_ns"
    ~desc:"per-root check latency (streaming engine), nanoseconds"

let m_peak =
  Obs.Metrics.gauge "trace.peak_live_paths"
    ~desc:"high-water mark of simultaneously-live paths across roots"

let note_warnings warnings =
  if Obs.enabled () then
    List.iter
      (fun (w : Warning.t) ->
        Obs.Metrics.add_labelled m_warnings
          (Fmt.str "rule=%s,model=%s"
             (Warning.rule_name w.Warning.rule)
             (Model.to_string w.Warning.model))
          1)
      warnings

(* Deduplicate as warnings stream out: first occurrence wins, order
   kept — the same result [Warning.dedup] computes on the concatenated
   list, without retaining duplicates in the meantime. *)
let check_root_streaming ctx (src : Trace.source) =
  Obs.Span.with_ ~name:"check-root" (fun () ->
      Obs.Metrics.incr m_roots;
      let t0 = if Obs.enabled () then Obs.now_ns () else 0L in
      let seen = Hashtbl.create 16 in
      let rev_warnings = ref [] in
      Seq.iter
        (fun st ->
          List.iter
            (fun w ->
              let k = Warning.dedup_key w in
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                rev_warnings := w :: !rev_warnings
              end)
            (Rules.Incremental.finish st))
        (src.Trace.walk (Rules.Incremental.start ctx) Rules.Incremental.step);
      if Obs.enabled () then
        Obs.Metrics.observe m_root_ns
          (Int64.to_int (Int64.sub (Obs.now_ns ()) t0));
      List.rev !rev_warnings)

(* Per-root streaming results: the unit of incremental reuse. A root's
   warnings and stats depend only on its own call-graph closure, so a
   resident analyzer can replay cached [per_root] values for untouched
   roots and re-run only the stale ones, then [merge_roots] — the merge
   reproduces exactly what a cold [check] computes, provided the list
   is in the cold run's root order (cross-root dedup keeps the first
   occurrence, so order is semantically visible). *)
type per_root = {
  pr_root : string;
  pr_warnings : Warning.t list; (* per-root deduped, pre-sort *)
  pr_paths : int;
  pr_events : int;
  pr_peak : int;
}

let check_roots ?(config = Config.default) ?(field_sensitive = true)
    ?(offset_sensitive = true) ?(persistent_roots = []) ?dsg ?roots ~model
    (prog : Nvmir.Prog.t) : per_root list * Dsa.Dsg.t =
  let dsg =
    match dsg with
    | Some d -> d
    | None ->
      Dsa.Dsg.build ~field_sensitive ~offset_sensitive ~persistent_roots prog
  in
  let ctx = { Rules.model; dsg; tenv = Nvmir.Prog.tenv prog } in
  let sources = Trace.stream ~config ?roots dsg prog in
  (* freeze the union-find: forcing the sources from worker domains
     must not race on path compression *)
  Dsa.Arena.compress (Dsa.Dsg.arena dsg);
  let per_root =
    Pool.map (Pool.default ())
      (fun (src : Trace.source) ->
        let ws = check_root_streaming ctx src in
        (* the source is fully forced now, so its stats are final *)
        {
          pr_root = src.Trace.root;
          pr_warnings = ws;
          pr_paths = src.Trace.s_stats.Trace.paths;
          pr_events = src.Trace.s_stats.Trace.events;
          pr_peak = src.Trace.s_stats.Trace.peak_live;
        })
      sources
  in
  (per_root, dsg)

let merge_roots ~model ~dsg (per_root : per_root list) : result =
  let warnings =
    List.concat_map (fun pr -> pr.pr_warnings) per_root
    |> Warning.dedup |> Warning.sort
  in
  note_warnings warnings;
  let trace_count, event_count, peak_paths =
    List.fold_left
      (fun (t, e, p) pr -> (t + pr.pr_paths, e + pr.pr_events, max p pr.pr_peak))
      (0, 0, 0) per_root
  in
  if Obs.enabled () then Obs.Metrics.set_max m_peak peak_paths;
  { model; warnings; trace_count; event_count; peak_paths; dsg }

let check ?(config = Config.default) ?(field_sensitive = true)
    ?(offset_sensitive = true) ?(persistent_roots = []) ?roots ~model
    (prog : Nvmir.Prog.t) : result =
  let dsg =
    Dsa.Dsg.build ~field_sensitive ~offset_sensitive ~persistent_roots prog
  in
  let ctx = { Rules.model; dsg; tenv = Nvmir.Prog.tenv prog } in
  match config.Config.engine with
  | Config.Materialized ->
    let per_root = Trace.collect ~config ?roots dsg prog in
    let traces = List.concat_map snd per_root in
    let warnings =
      List.concat_map (Rules.check_trace ctx) traces
      |> Warning.dedup |> Warning.sort
    in
    note_warnings warnings;
    let event_count =
      List.fold_left (fun acc t -> acc + Trace.length t) 0 traces
    in
    (* every materialized trace is live at once *)
    if Obs.enabled () then begin
      Obs.Metrics.incr m_roots;
      Obs.Metrics.set_max m_peak (List.length traces)
    end;
    {
      model;
      warnings;
      trace_count = List.length traces;
      event_count;
      peak_paths = List.length traces;
      dsg;
    }
  | Config.Streaming ->
    let per_root, dsg =
      check_roots ~config ~field_sensitive ~offset_sensitive ~persistent_roots
        ~dsg ?roots ~model prog
    in
    merge_roots ~model ~dsg per_root

(* Mixed-model checking — lifting the limitation §4.5 states ("DeepMC
   currently does not support the scenario that part of a program uses
   one model and other parts of the program use another"). Each analysis
   root carries its own intended model: the traces rooted there are
   checked under that model's rules, so a codebase whose storage engine
   uses epoch persistency while its allocator uses strict persistency is
   analyzed in one run. *)
type mixed_result = {
  per_root : (string * Model.t * Warning.t list) list;
  mixed_warnings : Warning.t list; (* union, deduplicated *)
  mixed_dsg : Dsa.Dsg.t;
}

let check_mixed ?(config = Config.default) ?(field_sensitive = true)
    ?(offset_sensitive = true) ?(persistent_roots = []) ~model_of ~roots
    (prog : Nvmir.Prog.t) : mixed_result =
  let dsg =
    Dsa.Dsg.build ~field_sensitive ~offset_sensitive ~persistent_roots prog
  in
  let per_root_traces = Trace.collect ~config ~roots dsg prog in
  let tenv = Nvmir.Prog.tenv prog in
  let per_root =
    List.map
      (fun (root, traces) ->
        let model = model_of root in
        let ctx = { Rules.model; dsg; tenv } in
        let warnings =
          List.concat_map (Rules.check_trace ctx) traces
          |> Warning.dedup |> Warning.sort
        in
        (root, model, warnings))
      per_root_traces
  in
  let mixed_warnings =
    Warning.sort
      (Warning.dedup (List.concat_map (fun (_, _, ws) -> ws) per_root))
  in
  { per_root; mixed_warnings; mixed_dsg = dsg }

let violations r =
  List.filter (fun w -> Warning.category w = Warning.Model_violation) r.warnings

let performance_bugs r =
  List.filter (fun w -> Warning.category w = Warning.Performance) r.warnings

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>model: %a@ traces analyzed: %d (%d events)@ warnings: %d (%d model \
     violations, %d performance)@ %a@]"
    Model.pp r.model r.trace_count r.event_count
    (List.length r.warnings)
    (List.length (violations r))
    (List.length (performance_bugs r))
    Fmt.(list ~sep:(any "@ ") Warning.pp)
    r.warnings
