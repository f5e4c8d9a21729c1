(* runtime-campaign: the interpreter-driven tiers. Crash-image
   exploration over the corpus (buggy and fixed variants) and small Synth
   programs, recovery verification over the recovery pair and its
   recovery-operator mutants, and guided fuzzing of the fuzz tier's
   false-negative mutants and of the memslap / redis / ycsb targets. *)

open Common

let why =
  "interpreter-driven tiers: crash images, recovery re-execution and \
   schedule fuzzing, where the static layers do almost no work"

let fuzz_budget = 24
let recover_bound = 96

(* A plain run of the entry with the dynamic checker attached: the
   interpreter's step rate, outside the operation's span. *)
let plain_run ~model ~entry ~args prog () =
  let pmem = Runtime.Pmem.create () in
  Runtime.Dynamic.attach (Runtime.Dynamic.create ~model ()) pmem;
  let it = Runtime.Interp.create ~pmem prog in
  let t0 = Obs.now_ns () in
  (try ignore (span "interp.run" (fun () -> Runtime.Interp.run ~entry ~args it))
   with _ -> ());
  add "interp.ns" (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
  add "interp.steps" (float (Runtime.Interp.steps it));
  None

let crash_op ~seed ~name ~model ~entry ~args prog =
  (* no independent oracle: only a raise or an exhausted budget fails *)
  let submit () =
    let t0 = Obs.now_ns () in
    let r =
      span "crash.explore" (fun () -> Deepmc.Crash_sweep.explore_program ~seed ~entry ~args prog)
    in
    add "crash.ns" (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
    add "crash.images_enumerated" (float r.Runtime.Crash_space.images_enumerated);
    add "crash.images_distinct" (float r.Runtime.Crash_space.images_distinct);
    fun () -> Pass
  in
  { label = "crash-explore " ^ name; submit; reference = plain_run ~model ~entry ~args prog }

(* Exploring a program re-executes it once per crash point, so its cost
   follows crash points x steps per run; the Synth programs are matched
   to targets of that product. *)
let reexecution_work prog =
  let it = Runtime.Interp.create ~pmem:(Runtime.Pmem.create ()) prog in
  ignore (Runtime.Interp.run ~entry:"main" it);
  float (Runtime.Crash_space.count_points ~entry:"main" prog * Runtime.Interp.steps it)

(* Two plateaus of distinct programs of one size each: the costliest
   operations of a pass, where the 90th percentile falls, and a middle
   one, large enough to hold the median wherever among the corpus
   programs' costs it lies. A percentile inside a plateau moves with the
   cost of its programs, not with where the edge between two corpus
   programs' costs happens to lie. (target, tolerance, programs,
   candidates scanned): about one candidate in four lands within 15% of
   700, one in fifteen within 5% of 2,000. *)
let plateaus = [ (700., 0.15, 48, 300); (2_000., 0.05, 24, 600) ]
let crash_ops ~seed ~tiny =
  (* tiny: two programs, and those with a known defect *)
  let corpus =
    if tiny then
      List.filteri
        (fun i (p : Corpus.Types.program) ->
          i < 2 || List.mem ("crash-explore " ^ p.Corpus.Types.name ^ "/fixed") known_defects)
        Corpus.Registry.all
    else Corpus.Registry.all
  in
  let of_program (p : Corpus.Types.program) =
    let model = Corpus.Types.model p in
    let entry = p.Corpus.Types.entry and args = p.Corpus.Types.entry_args in
    crash_op ~seed ~name:p.Corpus.Types.name ~model ~entry ~args (Corpus.Types.parse p)
    :: (match Corpus.Types.parse_fixed p with
       | None -> []
       | Some fixed ->
         [ crash_op ~seed ~name:(p.Corpus.Types.name ^ "/fixed") ~model ~entry ~args fixed ])
  in
  let synth =
    List.concat
      (List.mapi
         (fun k (target, tol, count, scan) ->
           List.mapi
             (fun i cfg ->
               crash_op ~seed
                 ~name:(Fmt.str "synth/%g/%d" target i)
                 ~model:Analysis.Model.Strict ~entry:"main" ~args:[]
                 (fst (Corpus.Synth.generate cfg)))
             (synth_near ~seed ~salt:(10_000 * (k + 1)) ~tol ~nfuncs:(2, 40)
                ~count:(if tiny then 1 else count)
                ~scan:(if tiny then 1 else scan)
                ~measure:reexecution_work target))
         plateaus)
  in
  List.concat_map of_program corpus @ synth

let recover_op ~seed ~name ~expect (b : Inject.Evaluate.base) prog =
  let submit () =
    let t0 = Obs.now_ns () in
    let r =
      span "recover.verify" (fun () ->
          Recover.verify ~entry:(Option.get b.Inject.Evaluate.entry)
            ~args:b.Inject.Evaluate.entry_args ~bound:recover_bound ~seed
            ~model:b.Inject.Evaluate.model prog)
    in
    add "recover.ns" (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
    add "recover.images_checked" (float r.Recover.images_checked);
    fun () -> expect r.Recover.warnings
  in
  { label = "recover " ^ name; submit; reference = no_reference }

let recover_ops ~seed ~wrong =
  let bases = Inject.Evaluate.recovery_bases () in
  let guarded, unguarded =
    List.partition
      (fun (b : Inject.Evaluate.base) ->
        String.equal b.Inject.Evaluate.bname Corpus.Recovery.guarded.Corpus.Types.name)
      bases
  in
  let guarded = List.hd guarded and unguarded = List.hd unguarded in
  let clean ws = if (ws = []) <> wrong then Pass else Wrong "guarded base warns" in
  let warns ws = if (ws <> []) <> wrong then Pass else Wrong "unguarded base is silent" in
  let mutants =
    mutate (fun () ->
        Inject.Mutation.mutate
          ~operators:Inject.Mutation.[ Strip_crc_guard; Silence_recovery; Drift_recovery_store ]
          ~base:guarded.Inject.Evaluate.bname ~model:guarded.Inject.Evaluate.model
          ~roots:guarded.Inject.Evaluate.roots guarded.Inject.Evaluate.prog)
  in
  (* the guarded base verifies clean, so a mutant's whole warning set is
     its delta *)
  let detected (m : Inject.Mutation.mutant) ws =
    let hit =
      List.exists
        (Inject.Mutation.expect_matches m.Inject.Mutation.truth.Inject.Mutation.primary)
        ws
    in
    if hit <> wrong then Pass else Wrong (m.Inject.Mutation.id ^ " not detected")
  in
  recover_op ~seed ~name:guarded.Inject.Evaluate.bname ~expect:clean guarded
    guarded.Inject.Evaluate.prog
  :: recover_op ~seed ~name:unguarded.Inject.Evaluate.bname ~expect:warns unguarded
       unguarded.Inject.Evaluate.prog
  :: List.map
       (fun (m : Inject.Mutation.mutant) ->
         recover_op ~seed ~name:m.Inject.Mutation.id ~expect:(detected m) guarded
           m.Inject.Mutation.prog)
       mutants

let campaign ~seed target =
  let t0 = Obs.now_ns () in
  let o =
    span "fuzz.campaign" (fun () ->
        Fuzz.Campaign.run ~seed ~budget:fuzz_budget ~mode:Fuzz.Campaign.Guided target)
  in
  add "fuzz.ns" (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
  add "fuzz.executions" (float o.Fuzz.Campaign.executions);
  add "fuzz.novel" (float o.Fuzz.Campaign.novel_schedules);
  add "fuzz.aborted" (float o.Fuzz.Campaign.aborted);
  o

(* The fuzz tier's false negatives, derived as the fuzz bench derives
   them: mutants of the offset-insensitive corpus and exemplar bases
   that their expected tier's detector misses. *)
let fuzz_fn_ops ~seed ~tiny ~wrong =
  let bases =
    Inject.Evaluate.corpus_bases ~offset_sensitive:false ()
    @ Inject.Evaluate.exemplar_bases ~offset_sensitive:false ()
  in
  let s = Inject.Evaluate.run ~crash:false ~seed bases in
  let fns = Inject.Evaluate.false_negatives s in
  let fns = if tiny then List.filteri (fun i _ -> i < 2) fns else fns in
  List.filter_map
    (fun (mr : Inject.Evaluate.mutant_result) ->
      let m = mr.Inject.Evaluate.mutant in
      match
        List.find_opt
          (fun (b : Inject.Evaluate.base) ->
            String.equal b.Inject.Evaluate.bname m.Inject.Mutation.base)
          bases
      with
      | Some ({ Inject.Evaluate.entry = Some entry; _ } as b) ->
        let target prog tname =
          {
            Fuzz.Campaign.tname;
            prog;
            model = m.Inject.Mutation.model;
            entry;
            entry_args = b.Inject.Evaluate.entry_args;
            clients = 1;
          }
        in
        (* the base's campaign is the reference noise floor, fixed per
           seed: computed once here *)
        let base_o = campaign ~seed (target b.Inject.Evaluate.prog b.Inject.Evaluate.bname) in
        let submit () =
          let o = campaign ~seed (target m.Inject.Mutation.prog m.Inject.Mutation.id) in
          fun () ->
            if Fuzz.Campaign.recovers ~truth:m.Inject.Mutation.truth ~base:base_o o <> wrong
            then Pass
            else Wrong (m.Inject.Mutation.id ^ " not recovered")
        in
        Some { label = "fuzz " ^ m.Inject.Mutation.id; submit; reference = no_reference }
      | _ -> None)
    fns

let app_ops ~seed =
  List.map
    (fun (name, (gen : Workloads.Fuzz_targets.gen)) ->
      let prog = gen ~clients:3 ~seed () in
      let target =
        {
          Fuzz.Campaign.tname = name;
          prog;
          model = Analysis.Model.Epoch;
          entry = "main";
          entry_args = [];
          clients = 3;
        }
      in
      let submit () =
        ignore (campaign ~seed target);
        fun () -> Pass
      in
      { label = "fuzz " ^ name; submit; reference = no_reference })
    Workloads.Fuzz_targets.all

let setup ~seed ~tiny ~wrong =
  let seed = 1 + (mix seed 7 mod 10_000) in
  let ops, defects =
    known_defect
      (crash_ops ~seed ~tiny @ recover_ops ~seed ~wrong
      @ fuzz_fn_ops ~seed ~tiny ~wrong @ app_ops ~seed)
  in
  let ops = balanced_order ~seed (Array.of_list ops) in
  (* warm-up: one pass *)
  Array.iter (fun op -> ignore (outcome (submit op))) ops;
  { (cycle ops) with defects }
