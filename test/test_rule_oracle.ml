(* Differential tests of the one-pass rules against the list-scan
   reference (Rules_ref): path by path and rule by rule, the same
   rendered warnings in the same emission order, and the same static
   witnesses when witness capture is on. Inputs: every corpus program,
   generated Synth programs across sizes, defect rates and models, a
   Synth path of several thousand events, and random event sequences
   that no well-formed program produces (unbalanced transactions and
   epochs, strided and unknown offsets, symbolic indexes). *)

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

let suite =
  [
    tc "one-pass rules = reference (corpus, all models)" `Quick test_corpus;
    tc "one-pass rules = reference (2,000+-event paths)" `Quick test_long_path;
    QCheck_alcotest.to_alcotest prop_synth;
    QCheck_alcotest.to_alcotest prop_random_traces;
  ]
