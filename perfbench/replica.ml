(* The static check rebuilt from its public parts, so the traced run can
   time each layer from outside the library:

     Dsg.build -> Trace.stream -> Arena.compress -> force each source
       on the pool -> Rules.check_trace per path -> per-root dedup
       -> merge_roots

   [check_trace] is spelled out as its composition (scope the path, then
   the seven rules in the order [Rules.check_trace] runs them) so each
   rule gets its own span. [against_checker] proves the rebuild still
   computes what [Analysis.Checker.check] computes; per-layer numbers are
   only published while it does. *)

open Analysis
open Common

let rules =
  [
    ("rules.unflushed_write", Rules.check_unflushed_write);
    ("rules.multiple_writes", Rules.check_multiple_writes_at_once);
    ("rules.missing_persist_barrier", Rules.check_missing_persist_barrier);
    ("rules.missing_barrier_nested_tx", Rules.check_missing_barrier_nested_tx);
    ("rules.semantic_mismatch", Rules.check_semantic_mismatch);
    ("rules.strand_dependence", Rules.check_strand_dependence);
    ("rules.flush_coverage", Rules.check_flush_coverage);
  ]

(* Paths shorter than this feed [rules.events_per_s.short]; paths of at
   least [long_path] events feed [rules.events_per_s.long]. *)
let short_path = 1_000
let long_path = 2_000

let check_path ctx trace =
  let events = Trace.length trace in
  let t0 = Obs.now_ns () in
  let ws =
    span "rules.eval" (fun () ->
        let scoped = span "rules.scope" (fun () -> Rules.scope_trace trace) in
        List.concat_map (fun (name, rule) -> span name (fun () -> rule ctx scoped)) rules)
  in
  let ns = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
  let band =
    if events < short_path then Some "short"
    else if events >= long_path then Some "long"
    else None
  in
  Option.iter
    (fun b ->
      add ("rules.events." ^ b) (float events);
      add ("rules.ns." ^ b) ns)
    band;
  peak "trace.events_per_path_max" (float events);
  ws

(* Per-root streaming with first-occurrence dedup, as the checker's
   streaming engine does. *)
let check_source ctx (src : Trace.source) : Checker.per_root =
  let seen = Hashtbl.create 16 in
  let rev = ref [] in
  let rec drain seq =
    match span "trace.expand" seq with
    | Seq.Nil -> ()
    | Seq.Cons (trace, rest) ->
      List.iter
        (fun w ->
          let k = Warning.dedup_key w in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            rev := w :: !rev
          end)
        (check_path ctx trace);
      drain rest
  in
  drain src.Trace.traces;
  let st = src.Trace.s_stats in
  add "trace.paths" (float st.Trace.paths);
  add "trace.events" (float st.Trace.events);
  peak "trace.peak_live_paths" (float st.Trace.peak_live);
  {
    Checker.pr_root = src.Trace.root;
    pr_warnings = List.rev !rev;
    pr_paths = st.Trace.paths;
    pr_events = st.Trace.events;
    pr_peak = st.Trace.peak_live;
  }

let check ~model prog : Checker.result =
  let dsg =
    span "dsa.build" (fun () ->
        Dsa.Dsg.build ~field_sensitive:true ~offset_sensitive:true prog)
  in
  let ctx = { Rules.model; dsg; tenv = Nvmir.Prog.tenv prog } in
  let sources = span "trace.stream_setup" (fun () -> Trace.stream dsg prog) in
  span "dsa.compress" (fun () -> Dsa.Arena.compress (Dsa.Dsg.arena dsg));
  let per_root = Pool.map (Pool.default ()) (check_source ctx) sources in
  span "checker.merge" (fun () -> Checker.merge_roots ~model ~dsg per_root)

let parse ~file text =
  add "nvmir.bytes" (float (String.length text));
  span "nvmir.parse" (fun () -> Nvmir.Parser.parse ~file text)

(* [Analysis.Checker.check] on the same program; [None] when the replica
   reproduced its warnings (rendered text) and event count. *)
let against_checker ~model prog (replica : Checker.result) =
  let t0 = Obs.now_ns () in
  let r = span "checker.check" (fun () -> Checker.check ~model prog) in
  add "checker.ns" (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
  add "checker.events" (float r.Checker.event_count);
  let a = render_warnings r.Checker.warnings in
  let b = render_warnings replica.Checker.warnings in
  if not (List.equal String.equal a b) then
    Some
      (Fmt.str "replica warnings differ: checker %d, replica %d" (List.length a)
         (List.length b))
  else if r.Checker.event_count <> replica.Checker.event_count then
    Some
      (Fmt.str "replica event count %d, checker %d" replica.Checker.event_count
         r.Checker.event_count)
  else None
