(* corpus-edit: edit-and-recheck traffic to the resident daemon. Each
   round starts a daemon and, for every paper-corpus program in a seeded
   order, sends its text (first sight: a miss), two one-site mutants of
   its autofixed base (an edit: the stale roots are re-checked), and one
   byte-identical resubmission (a hit).

   The daemon checks from the call-graph roots of the text it is sent,
   while the corpus states its ground truth for its static-analysis
   roots. Each text therefore leaves out the program's dynamic-analysis
   driver (the [entry] that calls every scenario driver), which makes
   the call-graph roots exactly the corpus roots. *)

open Common

let why =
  "short corpus paths through the resident daemon: parse, DSA, trace \
   setup and caching dominate; misses, edits and hits in a fixed mix"

type truth =
  | Expect of Deepmc.Report.expectation list
      (** corpus text: nothing missed, nothing unexpected *)
  | Primary of Inject.Mutation.expect  (** mutant: its seeded violation *)

type text = { tname : string; model : Analysis.Model.t; body : string; truth : truth }

type program = { original : text; edits : text array }

(* Per round and program: edits sent after the original, then one
   resubmission. Against one miss and two edits, the single hit puts
   hits near a quarter of requests, so the median lies among the
   misses and edits and the 90th percentile well above the hit mode. *)
let edits_per_program = 2

let static_view (p : Corpus.Types.program) prog =
  if List.mem p.Corpus.Types.entry p.Corpus.Types.roots then prog
  else begin
    let q = Nvmir.Prog.create () in
    List.iter (Nvmir.Prog.add_struct q) (Nvmir.Prog.structs prog);
    List.iter
      (fun (f : Nvmir.Func.t) ->
        if not (String.equal f.Nvmir.Func.fname p.Corpus.Types.entry) then
          Nvmir.Prog.add_func q f)
      (Nvmir.Prog.funcs prog);
    q
  end

let text_of prog = Fmt.str "%a" Nvmir.Prog.pp prog

let programs ~tiny ~wrong =
  let bases = Inject.Evaluate.corpus_bases () in
  let corpus =
    if tiny then List.filteri (fun i _ -> i < 3) Corpus.Registry.all
    else Corpus.Registry.all
  in
  List.map
    (fun (p : Corpus.Types.program) ->
      let model = Corpus.Types.model p in
      let exps = Corpus.Types.expectations p in
      let exps =
        if not wrong then exps
        else
          List.map
            (fun (e : Deepmc.Report.expectation) ->
              { e with Deepmc.Report.line = e.Deepmc.Report.line + 100_000 })
            exps
      in
      let original =
        {
          tname = p.Corpus.Types.name;
          model;
          body = text_of (static_view p (Corpus.Types.parse p));
          truth = Expect exps;
        }
      in
      let base =
        List.find
          (fun (b : Inject.Evaluate.base) ->
            String.equal b.Inject.Evaluate.bname p.Corpus.Types.name)
          bases
      in
      let mutants =
        mutate (fun () ->
            Inject.Mutation.mutate ~base:base.Inject.Evaluate.bname ~model
              ~roots:base.Inject.Evaluate.roots base.Inject.Evaluate.prog)
      in
      let edits =
        Array.of_list
          (List.map
             (fun (m : Inject.Mutation.mutant) ->
               {
                 tname = m.Inject.Mutation.id;
                 model;
                 body = text_of (static_view p m.Inject.Mutation.prog);
                 truth = Primary m.Inject.Mutation.truth.Inject.Mutation.primary;
               })
             mutants)
      in
      { original; edits })
    corpus

let request ~name (t : text) =
  Serve.Protocol.to_line
    (Serve.Protocol.Obj
       [
         ("cmd", Serve.Protocol.String "check");
         ("name", Serve.Protocol.String name);
         ("model", Serve.Protocol.String (Analysis.Model.to_string t.model));
         ("program", Serve.Protocol.String t.body);
       ])

let warning_of_json j =
  let str k = Option.get (Serve.Protocol.string_member k j) in
  let rule =
    List.find
      (fun r -> String.equal (Analysis.Warning.rule_name r) (str "rule"))
      Analysis.Warning.all_rules
  in
  Analysis.Warning.make ~rule
    ~model:(Option.get (Analysis.Model.of_string (str "model")))
    ~loc:
      (Nvmir.Loc.make ~file:(str "file")
         ~line:(Option.get (Serve.Protocol.int_member "line" j)))
    ~fname:(str "function") (str "message")

let score truth warnings =
  match truth with
  | Expect exps ->
    let s = Deepmc.Report.score exps warnings in
    if s.Deepmc.Report.missed = [] && s.Deepmc.Report.unexpected = [] then Pass
    else
      Wrong
        (Fmt.str "%d missed, %d unexpected"
           (List.length s.Deepmc.Report.missed)
           (List.length s.Deepmc.Report.unexpected))
  | Primary e ->
    if List.exists (Inject.Mutation.expect_matches e) warnings then Pass
    else Wrong (Fmt.str "primary %s:%d not reported" e.Inject.Mutation.file e.Inject.Mutation.line)

let strings_member k j =
  match Serve.Protocol.member k j with Some (Serve.Protocol.List l) -> List.length l | _ -> 0

let send daemon ~name (t : text) =
  let line = request ~name t in
  let level = ref "none" in
  let submit () =
    let daemon = Lazy.force daemon in
    let t0 = Obs.now_ns () in
    let reply =
      span "serve.handle_line" (fun () ->
          match Serve.Daemon.handle_line daemon line with `Reply s | `Quit s -> s)
    in
    let ns = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
    fun () ->
      match Serve.Protocol.parse reply with
      | Error e -> Failed ("unparsable response: " ^ e)
      | Ok j -> (
        match Serve.Protocol.string_member "status" j with
        | Some "ok" ->
          level := Option.value ~default:"none" (Serve.Protocol.string_member "cache" j);
          add ("serve.ns." ^ !level) ns;
          add ("serve.n." ^ !level) 1.;
          add "serve.roots_reused" (float (strings_member "roots_reused" j));
          add "serve.roots_stale" (float (strings_member "roots_rechecked" j));
          add "serve.functions_invalidated"
            (float (Option.value ~default:0 (Serve.Protocol.int_member "functions_invalidated" j)));
          let ws =
            match Serve.Protocol.member "warnings" j with
            | Some (Serve.Protocol.List l) -> List.map warning_of_json l
            | _ -> []
          in
          score t.truth ws
        | _ ->
          Failed
            (Option.value ~default:"error response" (Serve.Protocol.string_member "error" j)))
  in
  (* replica check of the cold path for every request the daemon had to
     analyse (a hit replays a stored summary) *)
  let reference () =
    if String.equal !level "hit" then None
    else
      let prog = Replica.parse ~file:t.tname t.body in
      let r = Replica.check ~model:t.model prog in
      Replica.against_checker ~model:t.model prog r
  in
  { label = "check " ^ t.tname; submit; reference }

let round ~seed programs r =
  let daemon = lazy (Serve.Daemon.create ()) in
  let st = rng seed (100 + r) in
  let order = Array.of_list programs in
  shuffle st order;
  List.concat_map
    (fun p ->
      let name = p.original.tname in
      let n = Array.length p.edits in
      let edits =
        List.init (min n edits_per_program) (fun _ -> p.edits.(Random.State.int st n))
      in
      let sent = Array.of_list (p.original :: edits) in
      let resend = sent.(Random.State.int st (Array.length sent)) in
      List.map (send daemon ~name) (Array.to_list sent @ [ resend ]))
    (Array.to_list order)

let setup ~seed ~tiny ~wrong =
  let programs = programs ~tiny ~wrong in
  (* warm-up: every text once, through one daemon, so that it does the
     same work for every seed *)
  let daemon = lazy (Serve.Daemon.create ()) in
  List.iter
    (fun p ->
      Array.iter
        (fun t -> ignore (outcome (submit (send daemon ~name:p.original.tname t))))
        (Array.append [| p.original |] p.edits))
    programs;
  {
    pass = List.length (round ~seed programs 0);
    stream = (fun () -> Seq.flat_map (fun r -> List.to_seq (round ~seed programs r)) (Seq.ints 0));
    defects = [];
  }
