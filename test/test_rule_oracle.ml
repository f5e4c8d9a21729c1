(* Differential tests of the one-pass rules against the list-scan
   reference (Rules_ref): path by path and rule by rule, the same
   rendered warnings in the same emission order, and the same static
   witnesses when witness capture is on. Inputs: every corpus program,
   generated Synth programs across sizes, defect rates and models, a
   Synth path of several thousand events, and random event sequences
   that no well-formed program produces (unbalanced transactions and
   epochs, strided and unknown offsets, symbolic indexes).

   Then the prefix sharing: [Checker.check] steps one rule machine over
   the path prefixes its walk shares, and must report what the
   reference reports checking every path on its own — on the corpus,
   on Synth programs, on the 64 paths of synth-long, and on directed
   forks where sibling paths part right after the state a rule keeps
   open. *)

let tc = Alcotest.test_case

let render ws = List.map (Fmt.str "%a" Analysis.Warning.pp) ws

let witness_json (w : Analysis.Warning.t) =
  match w.Analysis.Warning.witness with
  | Some x -> Deepmc.Json_report.(to_string (of_witness x))
  | None -> "-"

let with_witnesses f =
  Analysis.Witness.set_enabled true;
  Fun.protect ~finally:(fun () -> Analysis.Witness.set_enabled false) f

(* [None] when every rule agrees with its reference on [trace];
   otherwise what differs. *)
let disagreement ctx trace =
  let scoped = Analysis.Rules.scope_trace trace in
  let rule_diff =
    if scoped <> Rules_ref.scope_trace trace then
      Some "scoping differs from the reference's"
    else
      List.find_map
        (fun (name, reference, rule) ->
          let want = render (reference ctx scoped) and got = render (rule ctx scoped) in
          if want = got then None
          else
            Some
              (Fmt.str "%s on a %d-event path:@.reference@.  %a@.one-pass@.  %a" name
                 (List.length scoped)
                 Fmt.(list ~sep:(any "@.  ") string)
                 want
                 Fmt.(list ~sep:(any "@.  ") string)
                 got))
        Rules_ref.all
  in
  match rule_diff with
  | Some _ -> rule_diff
  | None ->
    (* the whole rule set with witnesses attached, as the checker runs it *)
    let got = with_witnesses (fun () -> Analysis.Rules.check_trace ctx trace) in
    let want =
      List.concat_map (fun (_, reference, _) -> reference ctx scoped) Rules_ref.all
      |> List.map (fun w ->
             Analysis.Warning.with_witness w (Analysis.Rules.static_witness scoped w))
    in
    if render got = render want
       && List.map witness_json got = List.map witness_json want
    then None
    else Some "witnessed rule set differs from the reference"

let ctx_of ~model prog =
  let dsg = Dsa.Dsg.build prog in
  ({ Analysis.Rules.model; dsg; tenv = Nvmir.Prog.tenv prog }, dsg)

(* Every path from [roots] (or only the first [limit] per root) under
   every model; the first disagreement. *)
let program_disagreement ?limit ?roots prog =
  List.find_map
    (fun model ->
      let ctx, dsg = ctx_of ~model prog in
      List.find_map
        (fun (src : Analysis.Trace.source) ->
          let paths =
            match limit with
            | Some n -> Seq.take n src.Analysis.Trace.traces
            | None -> src.Analysis.Trace.traces
          in
          Seq.find_map
            (fun t ->
              Option.map
                (fun d -> Fmt.str "%s, root %s: %s" (Analysis.Model.to_string model)
                    src.Analysis.Trace.root d)
                (disagreement ctx t))
            paths)
        (Analysis.Trace.stream ?roots dsg prog))
    Analysis.Model.all

let test_corpus () =
  List.iter
    (fun (p : Corpus.Types.program) ->
      match
        program_disagreement ~roots:p.Corpus.Types.roots (Corpus.Types.parse p)
      with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" p.Corpus.Types.name d)
    Corpus.Registry.all

let synth_prog ~seed ~nfuncs ~buggy ~ptr_arith =
  fst
    (Corpus.Synth.generate
       {
         Corpus.Synth.default_config with
         seed;
         nfuncs;
         buggy_fraction_pct = buggy;
         ptr_arith;
       })

let prop_synth =
  QCheck.Test.make ~name:"one-pass rules = reference (synth)" ~count:20
    (QCheck.make
       ~print:(fun (seed, nfuncs, buggy, ptr_arith) ->
         Fmt.str "seed=%d nfuncs=%d buggy=%d%% ptr_arith=%b" seed nfuncs buggy
           ptr_arith)
       QCheck.Gen.(
         quad (int_bound 10_000) (int_range 10 60) (oneofl [ 0; 30; 100 ]) bool))
    (fun (seed, nfuncs, buggy, ptr_arith) ->
      let prog = synth_prog ~seed ~nfuncs ~buggy ~ptr_arith in
      let cfg = { Corpus.Synth.default_config with seed; nfuncs } in
      match program_disagreement ~roots:(Corpus.Synth.roots cfg) prog with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* The regime the one-pass rules exist for: from the single [main]
   root, seed 1 at 20 functions walks paths of about 2,400 events. The
   reference is quadratic, so only the first two paths of each model
   run through it. *)
let test_long_path () =
  List.iter
    (fun buggy ->
      let prog = synth_prog ~seed:1 ~nfuncs:20 ~buggy ~ptr_arith:false in
      let dsg = Dsa.Dsg.build prog in
      (match Analysis.Trace.stream ~roots:[ "main" ] dsg prog with
      | src :: _ -> (
        match src.Analysis.Trace.traces () with
        | Seq.Cons (t, _) ->
          if Analysis.Trace.length t < 2_000 then
            Alcotest.failf "first path has only %d events" (Analysis.Trace.length t)
        | Seq.Nil -> Alcotest.fail "no path")
      | [] -> Alcotest.fail "no root");
      match program_disagreement ~limit:2 ~roots:[ "main" ] prog with
      | None -> ()
      | Some d -> Alcotest.failf "buggy=%d%%: %s" buggy d)
    [ 0; 100 ]

(* ------------------------------------------------------------------ *)
(* Random event sequences *)

(* Two pmem objects of a three-field struct and one of an unknown type,
   for a DSG whose nodes the random addresses can name. *)
let random_ctx_src =
  {|struct s { f: int, g: int, h: int }
func main() {
entry:
  p = alloc pmem s
  q = alloc pmem s
  r = alloc pmem int
  store p->f, 1
  store q->f, 1
  store r, 1
  ret
}
|}

let random_nodes, random_dsg, random_prog =
  let prog = Nvmir.Parser.parse random_ctx_src in
  let dsg = Dsa.Dsg.build prog in
  let nodes = Dsa.Arena.canonical_ids (Dsa.Dsg.arena dsg) in
  (nodes, dsg, prog)

let gen_addr =
  QCheck.Gen.(
    map
      (fun (node, field, index, offset) ->
        { Dsa.Aaddr.node; field; index; offset })
      (quad (oneofl random_nodes)
         (frequencyl [ (2, None); (3, Some "f"); (3, Some "g"); (1, Some "h") ])
         (frequencyl
            [
              (6, Dsa.Aaddr.No_index);
              (1, Dsa.Aaddr.Const_index 0);
              (1, Dsa.Aaddr.Const_index 1);
              (1, Dsa.Aaddr.Sym_index "i");
            ])
         (frequencyl
            [
              (6, Dsa.Aaddr.Off_exact 0);
              (1, Dsa.Aaddr.Off_exact 1);
              (1, Dsa.Aaddr.off_stride ~base:0 ~stride:2);
              (1, Dsa.Aaddr.Off_top);
            ])))

let gen_kind =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun a -> Analysis.Event.Write a) gen_addr);
        ( 4,
          map2
            (fun a o -> Analysis.Event.Flush (a, o))
            gen_addr
            (oneofl Analysis.Event.[ Plain; From_persist ]) );
        (3, return Analysis.Event.Fence);
        (2, map (fun a -> Analysis.Event.Log a) gen_addr);
        (1, return Analysis.Event.Tx_begin);
        (1, return Analysis.Event.Tx_end);
        (1, return Analysis.Event.Epoch_begin);
        (1, return Analysis.Event.Epoch_end);
        (1, map (fun n -> Analysis.Event.Strand_begin n) (int_bound 2));
        (1, map (fun n -> Analysis.Event.Strand_end n) (int_bound 2));
        (1, return (Analysis.Event.Call_mark "callee"));
        (1, return (Analysis.Event.Ret_mark "callee"));
      ])

(* Event i sits on line i + 1, so every warning names its event. *)
let gen_trace =
  QCheck.Gen.(
    map
      (List.mapi (fun i kind ->
           Analysis.Event.make ~fname:"main"
             ~loc:(Nvmir.Loc.make ~file:"random.c" ~line:(i + 1))
             kind))
      (list_size (int_bound 80) gen_kind))

let prop_random_traces =
  QCheck.Test.make ~name:"one-pass rules = reference (random events)" ~count:1000
    (QCheck.make
       ~print:(fun (model, t) ->
         Fmt.str "%s@.%a" (Analysis.Model.to_string model)
           Fmt.(list ~sep:cut Analysis.Event.pp)
           t)
       QCheck.Gen.(pair (oneofl Analysis.Model.all) gen_trace))
    (fun (model, trace) ->
      let ctx =
        { Analysis.Rules.model; dsg = random_dsg; tenv = Nvmir.Prog.tenv random_prog }
      in
      match disagreement ctx trace with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* ------------------------------------------------------------------ *)
(* Prefix sharing *)

let model_name = Analysis.Model.to_string

(* [Checker.check] against the reference checker: rendered warnings,
   then witness JSON (["-"] for every warning while capture is off). *)
let checker_disagreement ?one_pass ?roots ~model prog =
  let got = (Analysis.Checker.check ?roots ~model prog).Analysis.Checker.warnings in
  let want = Rules_ref.check ?one_pass ?roots ~model prog in
  if render got <> render want then
    Some
      (Fmt.str "%s: checker@.  %a@.reference@.  %a" (model_name model)
         Fmt.(list ~sep:(any "@.  ") string)
         (render got)
         Fmt.(list ~sep:(any "@.  ") string)
         (render want))
  else if List.map witness_json got <> List.map witness_json want then
    Some (Fmt.str "%s: witnesses differ" (model_name model))
  else None

(* Path by path: the machine state the walk reaches at each path's end
   against the reference checking that path alone — no dedup to hide a
   warning one sibling leaked into another. *)
let walk_disagreement ~model ?roots prog =
  let ctx, dsg = ctx_of ~model prog in
  List.find_map
    (fun (src : Analysis.Trace.source) ->
      let ends =
        List.of_seq
          (src.Analysis.Trace.walk (Analysis.Rules.Incremental.start ctx)
             Analysis.Rules.Incremental.step)
      in
      let paths = List.of_seq src.Analysis.Trace.traces in
      if List.length ends <> List.length paths then
        Some (Fmt.str "root %s: %d walked paths, %d traces" src.Analysis.Trace.root
                (List.length ends) (List.length paths))
      else
        List.find_map Fun.id
          (List.mapi
             (fun i (st, trace) ->
               let got = Analysis.Rules.Incremental.finish st in
               let want = Rules_ref.check_path ctx trace in
               if render got = render want
                  && List.map witness_json got = List.map witness_json want
               then None
               else
                 Some
                   (Fmt.str "%s, root %s, path %d:@.walk@.  %a@.reference@.  %a"
                      (model_name model) src.Analysis.Trace.root i
                      Fmt.(list ~sep:(any "@.  ") string)
                      (render got)
                      Fmt.(list ~sep:(any "@.  ") string)
                      (render want)))
             (List.combine ends paths)))
    (Analysis.Trace.stream ?roots dsg prog)

let test_corpus_checker () =
  List.iter
    (fun witnesses ->
      let run () =
        List.iter
          (fun (p : Corpus.Types.program) ->
            let prog = Corpus.Types.parse p in
            let roots = p.Corpus.Types.roots in
            List.iter
              (fun model ->
                match
                  match checker_disagreement ~roots ~model prog with
                  | Some _ as d -> d
                  | None -> walk_disagreement ~roots ~model prog
                with
                | None -> ()
                | Some d ->
                  Alcotest.failf "%s (witnesses %b): %s" p.Corpus.Types.name
                    witnesses d)
              Analysis.Model.all)
          Corpus.Registry.all
      in
      if witnesses then with_witnesses run else run ())
    [ false; true ]

(* Driver roots against the list-scan reference; the [main] root, whose
   64 paths share long prefixes, against the one-pass rules folded path
   by path. *)
let prop_synth_checker =
  QCheck.Test.make ~name:"prefix-shared checker = per-path reference (synth)"
    ~count:10
    (QCheck.make
       ~print:(fun (seed, nfuncs, buggy, ptr_arith, model) ->
         Fmt.str "seed=%d nfuncs=%d buggy=%d%% ptr_arith=%b %s" seed nfuncs buggy
           ptr_arith (model_name model))
       QCheck.Gen.(
         map
           (fun ((seed, nfuncs, buggy, ptr_arith), model) ->
             (seed, nfuncs, buggy, ptr_arith, model))
           (pair
              (quad (int_bound 10_000) (int_range 10 60) (oneofl [ 0; 30; 100 ]) bool)
              (oneofl Analysis.Model.[ Strict; Epoch ]))))
    (fun (seed, nfuncs, buggy, ptr_arith, model) ->
      let prog = synth_prog ~seed ~nfuncs ~buggy ~ptr_arith in
      let drivers = Corpus.Synth.roots { Corpus.Synth.default_config with nfuncs } in
      match
        match checker_disagreement ~roots:drivers ~model prog with
        | Some _ as d -> d
        | None -> checker_disagreement ~one_pass:true ~roots:[ "main" ] ~model prog
      with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* synth-long: Synth seed 1 at 60 functions from [main], 64 paths of
   about 9,700 events, with and without witnesses. *)
let test_synth_long () =
  let prog = synth_prog ~seed:1 ~nfuncs:60 ~buggy:0 ~ptr_arith:false in
  let model = Analysis.Model.Strict in
  let r = Analysis.Checker.check ~roots:[ "main" ] ~model prog in
  Alcotest.(check (pair int int))
    "paths, events" (64, 618_624)
    (r.Analysis.Checker.trace_count, r.Analysis.Checker.event_count);
  Option.iter (Alcotest.fail)
    (checker_disagreement ~one_pass:true ~roots:[ "main" ] ~model prog);
  Option.iter (Alcotest.fail)
    (with_witnesses (fun () ->
         checker_disagreement ~one_pass:true ~roots:[ "main" ] ~model prog))

(* Directed forks: [main flag] runs a common prefix that leaves a rule
   state open, then branches; each sibling must get exactly the
   warnings of its own path. [expect] lists, per path in walk order,
   the (rule, line) of every warning. *)
let fork_src body =
  Fmt.str
    {|struct s { f: int, g: int, h: int }
func main(flag: int) {
entry:
  p = alloc pmem s
  q = alloc pmem s
%s
}
|}
    body

let fork_case ~model ~expect body () =
  let prog = Nvmir.Parser.parse (fork_src body) in
  Option.iter Alcotest.fail (walk_disagreement ~model prog);
  Option.iter Alcotest.fail (checker_disagreement ~model prog);
  let ctx, dsg = ctx_of ~model prog in
  let per_path =
    List.concat_map
      (fun (src : Analysis.Trace.source) ->
        List.of_seq
          (Seq.map
             (fun st ->
               List.map
                 (fun (w : Analysis.Warning.t) ->
                   ( Analysis.Warning.rule_name w.Analysis.Warning.rule,
                     w.Analysis.Warning.loc.Nvmir.Loc.line ))
                 (Analysis.Rules.Incremental.finish st))
             (src.Analysis.Trace.walk (Analysis.Rules.Incremental.start ctx)
                Analysis.Rules.Incremental.step)))
      (Analysis.Trace.stream dsg prog)
  in
  Alcotest.(check (list (list (pair string int)))) "warnings per path" expect per_path

let fork_after_unflushed_write =
  fork_case ~model:Analysis.Model.Strict
    ~expect:[ []; [ ("unflushed-write", 1); ("unflushed-write", 3) ] ]
    {|  store p->f, 1          @ fork.c:1
  br flag, a, b
a:
  persist exact p->f     @ fork.c:2
  ret
b:
  store p->g, 2          @ fork.c:3
  ret|}

let fork_in_open_tx =
  fork_case ~model:Analysis.Model.Strict
    ~expect:[ [ ("unflushed-write", 4) ]; [] ]
    {|  tx_begin               @ fork.c:1
  tx_add exact p->f      @ fork.c:2
  store p->f, 1          @ fork.c:3
  br flag, a, b
a:
  store p->g, 2          @ fork.c:4
  tx_end                 @ fork.c:5
  ret
b:
  tx_add exact p->g      @ fork.c:6
  store p->g, 2          @ fork.c:7
  tx_end                 @ fork.c:8
  ret|}

let fork_after_whole_object_log =
  fork_case ~model:Analysis.Model.Strict
    ~expect:[ [ ("flush-unmodified", 2) ]; [] ]
    {|  tx_begin               @ fork.c:1
  tx_add object p        @ fork.c:2
  br flag, a, b
a:
  store p->f, 1          @ fork.c:3
  tx_end                 @ fork.c:4
  ret
b:
  store p->f, 1          @ fork.c:5
  store p->g, 2          @ fork.c:6
  store p->h, 3          @ fork.c:7
  tx_end                 @ fork.c:8
  ret|}

let fork_in_open_strand =
  fork_case ~model:Analysis.Model.Strand
    ~expect:
      [
        [ ("unflushed-write", 2); ("unflushed-write", 5); ("strand-dependence", 5) ];
        [ ("unflushed-write", 2); ("unflushed-write", 9) ];
      ]
    {|  strand_begin 1         @ fork.c:1
  store p->f, 1          @ fork.c:2
  br flag, a, b
a:
  strand_end 1           @ fork.c:3
  strand_begin 2         @ fork.c:4
  store p->f, 2          @ fork.c:5
  strand_end 2           @ fork.c:6
  ret
b:
  strand_end 1           @ fork.c:7
  strand_begin 2         @ fork.c:8
  store q->f, 2          @ fork.c:9
  strand_end 2           @ fork.c:10
  ret|}

(* Semantic mismatch judges a path by epochs once it marks one: the
   sibling that never opens an epoch keeps the fence-delimited units. *)
let fork_before_first_epoch =
  fork_case ~model:Analysis.Model.Epoch
    ~expect:[ [ ("semantic-mismatch", 3) ]; [] ]
    {|  store p->f, 1          @ fork.c:1
  persist exact p->f     @ fork.c:2
  br flag, a, b
a:
  store p->g, 2          @ fork.c:3
  persist exact p->g     @ fork.c:4
  ret
b:
  epoch_begin            @ fork.c:5
  store p->g, 2          @ fork.c:6
  persist exact p->g     @ fork.c:7
  epoch_end              @ fork.c:8
  ret|}

(* Calls the walk cannot splice: an undefined callee, and the bounded
   recursion's innermost call, keep their call mark with no return
   mark, on both sides of a fork. The walk must enumerate what
   [Trace.collect] materializes, and its states must carry the marks
   into the witnesses' call paths. *)
let fork_around_unexpanded_calls () =
  let prog =
    Nvmir.Parser.parse
      {|struct s { f: int, g: int, h: int }
func rec(p: ptr s, n: int) {
entry:
  store p->g, n          @ calls.c:10
  br n, again, done
again:
  call rec(p, n)         @ calls.c:11
  persist exact p->g     @ calls.c:12
  ret
done:
  ret
}
func main(flag: int) {
entry:
  p = alloc pmem s
  store p->f, 1          @ calls.c:1
  call ext(p)            @ calls.c:2
  br flag, a, b
a:
  call rec(p, flag)      @ calls.c:3
  ret
b:
  persist exact p->f     @ calls.c:4
  ret
}
|}
  in
  let roots = [ "main"; "rec" ] in
  let dsg = Dsa.Dsg.build prog in
  List.iter2
    (fun (root, collected) (src : Analysis.Trace.source) ->
      if collected <> List.of_seq src.Analysis.Trace.traces then
        Alcotest.failf "root %s: walked paths differ from the collected ones" root)
    (Analysis.Trace.collect ~roots dsg prog)
    (Analysis.Trace.stream ~roots (Dsa.Dsg.build prog) prog);
  with_witnesses (fun () ->
      List.iter
        (fun model ->
          Option.iter Alcotest.fail (walk_disagreement ~roots ~model prog);
          Option.iter Alcotest.fail (checker_disagreement ~roots ~model prog))
        Analysis.Model.all)

let suite =
  [
    tc "one-pass rules = reference (corpus, all models)" `Quick test_corpus;
    tc "one-pass rules = reference (2,000+-event paths)" `Quick test_long_path;
    QCheck_alcotest.to_alcotest prop_synth;
    QCheck_alcotest.to_alcotest prop_random_traces;
    tc "prefix-shared checker = reference (corpus, witnesses off/on)" `Quick
      test_corpus_checker;
    QCheck_alcotest.to_alcotest prop_synth_checker;
    tc "prefix-shared checker = reference (synth-long)" `Quick test_synth_long;
    tc "fork after an unflushed write" `Quick fork_after_unflushed_write;
    tc "fork inside an open tx" `Quick fork_in_open_tx;
    tc "fork after a whole-object log" `Quick fork_after_whole_object_log;
    tc "fork inside an open strand region" `Quick fork_in_open_strand;
    tc "fork before the first epoch" `Quick fork_before_first_epoch;
    tc "fork around unexpanded calls" `Quick fork_around_unexpanded_calls;
  ]
