(* Streaming-engine differential tests: the lazy trace engine and the
   incremental rule machine must be observationally identical to the
   materialized oracle — same traces, same order, same deduplicated
   warning sets — plus behavioural tests for the persistent domain
   pool. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let engine_config engine = { Analysis.Config.default with engine }

let check_with engine ~roots ~model prog =
  Analysis.Checker.check ~config:(engine_config engine) ~roots ~model prog

let warning_strings (r : Analysis.Checker.result) =
  List.map (Fmt.str "%a" Analysis.Warning.pp) r.Analysis.Checker.warnings

(* Warnings of both engines, rendered, for every corpus program. *)
let test_corpus_warning_sets () =
  List.iter
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      let model = Corpus.Types.model p in
      let roots = p.Corpus.Types.roots in
      let s = check_with Analysis.Config.Streaming ~roots ~model prog in
      let m = check_with Analysis.Config.Materialized ~roots ~model prog in
      check
        Alcotest.(list string)
        (p.Corpus.Types.name ^ " warning set")
        (warning_strings m) (warning_strings s);
      check Alcotest.int
        (p.Corpus.Types.name ^ " trace count")
        m.Analysis.Checker.trace_count s.Analysis.Checker.trace_count;
      check Alcotest.int
        (p.Corpus.Types.name ^ " event count")
        m.Analysis.Checker.event_count s.Analysis.Checker.event_count)
    Corpus.Registry.all

(* Trace-level equality: [Trace.stream] must enumerate exactly the
   traces [Trace.collect] materializes, in the same order. *)
let test_corpus_trace_streams () =
  List.iter
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      let roots = p.Corpus.Types.roots in
      let dsg = Dsa.Dsg.build prog in
      let collected = Analysis.Trace.collect ~roots dsg prog in
      let dsg' = Dsa.Dsg.build prog in
      let sources = Analysis.Trace.stream ~roots dsg' prog in
      List.iter2
        (fun (root, traces) (src : Analysis.Trace.source) ->
          check Alcotest.string "root order" root src.Analysis.Trace.root;
          let streamed = List.of_seq src.Analysis.Trace.traces in
          check Alcotest.bool
            (p.Corpus.Types.name ^ "/" ^ root ^ " identical traces")
            true (collected = [] || traces = streamed);
          if traces <> streamed then
            Alcotest.failf "%s/%s: %d materialized vs %d streamed traces"
              p.Corpus.Types.name root (List.length traces)
              (List.length streamed))
        collected sources)
    Corpus.Registry.all

(* The rule machine's scoping against the reference's direct recursion
   ([Rules_ref.scope_trace]) on every corpus trace, and the machine
   stepped over a trace against the seven rules run on the reference
   scoping. *)
let test_incremental_rules_agree () =
  List.iter
    (fun (p : Corpus.Types.program) ->
      let prog = Corpus.Types.parse p in
      let dsg = Dsa.Dsg.build prog in
      let ctx =
        {
          Analysis.Rules.model = Corpus.Types.model p;
          dsg;
          tenv = Nvmir.Prog.tenv prog;
        }
      in
      List.iter
        (fun (_, traces) ->
          List.iter
            (fun t ->
              let scoped = Rules_ref.scope_trace t in
              check Alcotest.bool
                (p.Corpus.Types.name ^ " scoping")
                true
                (Analysis.Rules.scope_trace t = scoped);
              let per_rule =
                List.concat_map (fun (_, _, rule) -> rule ctx scoped) Rules_ref.all
              in
              let inc =
                Analysis.Rules.Incremental.(feed (start ctx) t |> finish)
              in
              check
                Alcotest.(list string)
                (p.Corpus.Types.name ^ " incremental rules")
                (List.map (Fmt.str "%a" Analysis.Warning.pp) per_rule)
                (List.map (Fmt.str "%a" Analysis.Warning.pp) inc))
            traces)
        (Analysis.Trace.collect ~roots:p.Corpus.Types.roots dsg prog))
    Corpus.Registry.all

(* QCheck property: on generated programs of varying shape, both engines
   emit the same deduplicated warning set under all three models. *)
let test_qcheck_engine_equivalence =
  let gen =
    QCheck.make
      ~print:(fun (seed, nfuncs, buggy) ->
        Printf.sprintf "seed=%d nfuncs=%d buggy=%d%%" seed nfuncs buggy)
      QCheck.Gen.(
        triple (int_bound 1000) (int_range 2 40) (int_bound 100))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"streaming = materialized (synth)" gen
       (fun (seed, nfuncs, buggy_fraction_pct) ->
         let cfg =
           {
             Corpus.Synth.default_config with
             seed;
             nfuncs;
             buggy_fraction_pct;
           }
         in
         let prog, _ = Corpus.Synth.generate cfg in
         let roots = Corpus.Synth.roots cfg in
         List.for_all
           (fun model ->
             let s = check_with Analysis.Config.Streaming ~roots ~model prog in
             let m =
               check_with Analysis.Config.Materialized ~roots ~model prog
             in
             warning_strings s = warning_strings m
             && s.Analysis.Checker.event_count
                = m.Analysis.Checker.event_count)
           Analysis.Model.all))

(* Streaming peak-live-paths is genuinely smaller than the materialized
   trace count on a branchy program (the engine's reason to exist). *)
let branchy_source =
  String.concat "\n"
    ([ "struct s { a: int, b: int, c: int, d: int, e: int, f: int }";
       "func main() {"; "entry:"; "  p = alloc pmem s"; "  br b0" ]
    @ List.concat_map
        (fun (i, fld) ->
          [
            Printf.sprintf "b%d:" i;
            Printf.sprintf "  store p->%s, %d" fld i;
            Printf.sprintf "  persist exact p->%s" fld;
            Printf.sprintf "  v%d = load p->%s" i fld;
            Printf.sprintf "  c%d = v%d > 0" i i;
            Printf.sprintf "  br c%d, t%d, e%d" i i i;
            Printf.sprintf "t%d:" i;
            Printf.sprintf "  store p->%s, %d" fld (i + 1);
            Printf.sprintf "  persist exact p->%s" fld;
            Printf.sprintf "  br b%d" (i + 1);
            Printf.sprintf "e%d:" i;
            Printf.sprintf "  br b%d" (i + 1);
          ])
        [ (0, "a"); (1, "b"); (2, "c"); (3, "d"); (4, "e") ]
    @ [ "b5:"; "  store p->f, 9"; "  persist exact p->f"; "  ret"; "}" ])

let test_streaming_peak_paths () =
  let prog = Nvmir.Parser.parse branchy_source in
  let model = Analysis.Model.Strict in
  let s = check_with Analysis.Config.Streaming ~roots:[ "main" ] ~model prog in
  let m =
    check_with Analysis.Config.Materialized ~roots:[ "main" ] ~model prog
  in
  check Alcotest.int "same traces" m.Analysis.Checker.trace_count
    s.Analysis.Checker.trace_count;
  check
    Alcotest.(list string)
    "same warnings" (warning_strings m) (warning_strings s);
  check Alcotest.int "materialized holds every path"
    m.Analysis.Checker.trace_count m.Analysis.Checker.peak_paths;
  if s.Analysis.Checker.peak_paths >= m.Analysis.Checker.peak_paths then
    Alcotest.failf "streaming peak %d not below materialized %d"
      s.Analysis.Checker.peak_paths m.Analysis.Checker.peak_paths

(* ------------------------------------------------------------------ *)
(* Pool behaviour *)

(* Workers are spawned once and reused across submissions. *)
let test_pool_reuse () =
  let p = Pool.create ~size:2 () in
  let r1 = Pool.map p (fun x -> x + 1) (List.init 50 Fun.id) in
  let r2 = Pool.map p (fun x -> x * 2) (List.init 50 Fun.id) in
  let r3 = Pool.map p Fun.id [] in
  check Alcotest.(list int) "first" (List.init 50 (fun x -> x + 1)) r1;
  check Alcotest.(list int) "second" (List.init 50 (fun x -> x * 2)) r2;
  check Alcotest.(list int) "empty" [] r3;
  let s = Pool.stats p in
  check Alcotest.int "jobs counted" 2 s.Pool.jobs;
  if s.Pool.spawned_total > 1 then
    Alcotest.failf "pool of size 2 spawned %d workers across 2 jobs"
      s.Pool.spawned_total;
  Pool.shutdown p;
  check Alcotest.int "all joined" 0 (Pool.stats p).Pool.alive;
  (* the pool survives shutdown: the next job respawns lazily *)
  check Alcotest.(list int) "usable after shutdown" [ 2; 3 ]
    (Pool.map p (fun x -> x + 1) [ 1; 2 ]);
  Pool.shutdown p

(* A raising worker propagates its exception and leaves the pool
   usable. *)
let test_pool_raising_worker () =
  let p = Pool.create ~size:2 () in
  (match
     Pool.map p (fun x -> if x = 13 then failwith "pow" else x)
       (List.init 40 Fun.id)
   with
  | _ -> Alcotest.fail "expected the worker's exception"
  | exception Failure m -> check Alcotest.string "message" "pow" m);
  check Alcotest.(list int) "pool survives" [ 1; 4; 9 ]
    (Pool.map p (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.shutdown p

(* A worker task may itself submit to the same pool: the caller-helps
   drain makes nesting deadlock-free even when every domain is busy. *)
let test_pool_nested_submission () =
  let p = Pool.create ~size:2 () in
  let nested =
    Pool.map p
      (fun x -> List.fold_left ( + ) 0 (Pool.map p (fun y -> x * y) [ 1; 2; 3 ]))
      (List.init 20 Fun.id)
  in
  check Alcotest.(list int) "nested results"
    (List.init 20 (fun x -> 6 * x))
    nested;
  Pool.shutdown p

let suite =
  [
    tc "corpus warning sets" `Quick test_corpus_warning_sets;
    tc "corpus trace streams" `Quick test_corpus_trace_streams;
    tc "incremental rules agree" `Quick test_incremental_rules_agree;
    test_qcheck_engine_equivalence;
    tc "streaming peak paths" `Quick test_streaming_peak_paths;
    tc "pool reuse" `Quick test_pool_reuse;
    tc "pool raising worker" `Quick test_pool_raising_worker;
    tc "pool nested submission" `Quick test_pool_nested_submission;
  ]
