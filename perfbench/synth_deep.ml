(* synth-deep: generated programs with long interprocedural paths, each
   checked from its single [main] root. This is where checking is slow:
   rule evaluation grows with path length, and one root gives the pool
   nothing to fan out. *)

open Common

let why =
  "long-path Synth programs checked from one root: rule evaluation \
   dominates and grows with path length, and the pool has one root to run"

(* Path-length targets, each with the number of distinct programs (and
   their seeded-bug twins) to draw for it, in ascending order. Programs
   of equal path length still differ in checking cost by a fifth or so,
   so a run checks many distinct programs rather than cycling a few, and
   each reported percentile falls inside a plateau of many programs of
   one length (450 events holds the median, 950 the 90th percentile),
   where that difference averages out, instead of on the edge between
   two sizes. Log-spaced steps between the plateaus keep the cost curve
   continuous. Checking cost grows with the square of path length, so
   the ladder stops at 1,300 events to keep >= 100 operations in a run;
   one program at 2,100 supplies the paths of >= 2,000 events. *)
let targets =
  let steps ~lo ~hi k = List.map (fun t -> (t, 1)) (log_ladder ~lo ~hi k) in
  steps ~lo:300. ~hi:420. 14
  @ [ (450., 36) ]
  @ steps ~lo:500. ~hi:850. 10
  @ [ (950., 18) ]
  @ steps ~lo:1_050. ~hi:1_300. 4
  @ [ (2_100., 1) ]
let tiny_targets = [ (150., 1); (250., 1) ]
let tol = 0.03

(* Seeded defects are drawn in 30% of the workers of the buggy twin;
   the twin draws the same structure, so its paths are as long. *)
let buggy_pct = 30

let first_path_length prog =
  let dsg = Dsa.Dsg.build prog in
  match Analysis.Trace.stream dsg prog with
  | src :: _ -> (
    match src.Analysis.Trace.traces () with
    | Seq.Cons (t, _) -> float (Analysis.Trace.length t)
    | Seq.Nil -> 0.)
  | [] -> 0.

(* Almost every Synth program enumerates the full 64 paths from [main];
   the rare one with fewer would be a far cheaper rung. *)
let full_paths prog =
  let dsg = Dsa.Dsg.build prog in
  List.fold_left
    (fun n (src : Analysis.Trace.source) -> n + Seq.length src.Analysis.Trace.traces)
    0 (Analysis.Trace.stream dsg prog)
  >= 64

let score ~seeded (warnings : Analysis.Warning.t list) =
  let n = List.length warnings in
  if seeded = 0 && n > 0 then Wrong (Fmt.str "clean program: %d warnings" n)
  else if n < seeded then Wrong (Fmt.str "%d warnings for %d seeded" n seeded)
  else Pass

let op ~wrong ~rung cfg =
  let prog, seeded = Corpus.Synth.generate cfg in
  (* the self-test's deliberately wrong reference *)
  let seeded = if wrong then seeded + 1_000 else seeded in
  let model = Analysis.Model.Strict in
  let replica = ref None in
  (* for the per-layer split the verdict comes from the replica, so that
     the operation's time splits by layer; the reference then proves it
     equals the checker's *)
  let submit () =
    let r =
      if !layered then begin
        let r = Replica.check ~model prog in
        replica := Some r;
        r
      end
      else Analysis.Checker.check ~model prog
    in
    fun () -> score ~seeded r.Analysis.Checker.warnings
  in
  let reference () =
    match !replica with
    | None -> None
    | Some r ->
      replica := None;
      Replica.against_checker ~model prog r
  in
  {
    label =
      Fmt.str "synth rung=%02d seed=%d nfuncs=%d bug=%d%%" rung cfg.Corpus.Synth.seed
        cfg.Corpus.Synth.nfuncs cfg.Corpus.Synth.buggy_fraction_pct;
    submit;
    reference;
  }

(* About a third of the candidates land within [tol]; a plateau scans
   enough of them that its programs almost always land in the scan. *)
let scan count = if count = 1 then 1 else 4 * count

let setup ~seed ~tiny ~wrong =
  let cfgs =
    List.concat
      (List.mapi
         (fun k (target, count) ->
           synth_near ~seed ~salt:(10_000 * (k + 1)) ~tol ~nfuncs:(4, 120) ~count
             ~scan:(scan count)
             ~accept:(if tiny then fun _ -> true else full_paths)
             ~measure:first_path_length target)
         (if tiny then tiny_targets else targets))
  in
  let ops =
    Array.of_list
      (List.concat
         (List.mapi
            (fun rung cfg ->
              [
                op ~wrong ~rung cfg;
                op ~wrong ~rung { cfg with Corpus.Synth.buggy_fraction_pct = buggy_pct };
              ])
            cfgs))
  in
  let ops = balanced_order ~seed ops in
  (* warm-up: one check of the shortest rung *)
  ignore
    (Analysis.Checker.check ~model:Analysis.Model.Strict
       (fst (Corpus.Synth.generate (List.hd cfgs))));
  cycle ops
