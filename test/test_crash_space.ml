(* Tests for the crash-image explorer: the reachable-image oracle must
   dominate the prefix oracle (every violation the prefix oracle finds
   is also found over the image space, since the empty persisted-subset
   is always enumerated), fixed variants must stay clean at every bound,
   and the sampling/pruning machinery must behave. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let buggy_hashmap_src =
  {|
struct hashmap { nbuckets: int, bucket0: int }
func main() {
entry:
  h = alloc pmem hashmap
  store h->nbuckets, 4
  persist exact h->nbuckets
  store h->bucket0, 1
  persist exact h->bucket0
  ret
}
|}

let fixed_hashmap_src =
  {|
struct hashmap { nbuckets: int, bucket0: int }
func main() {
entry:
  h = alloc pmem hashmap
  tx_begin
  tx_add exact h->nbuckets
  tx_add exact h->bucket0
  store h->nbuckets, 4
  store h->bucket0, 1
  tx_end
  ret
}
|}

(* invariant: if nbuckets is durable, bucket0 must be initialized —
   phrased over a value lookup so the same predicate serves both the
   prefix oracle ([Crash.test], reading [durable_value]) and the image
   oracle ([Crash_space.test], reading a materialized image). *)
let invariant read =
  let v slot =
    Runtime.Value.to_int (read { Runtime.Pmem.obj_id = 0; slot })
  in
  if v 0 <> 0 && v 1 = 0 then Error "nbuckets durable before buckets"
  else Ok ()

let prefix_invariant pmem = invariant (Runtime.Pmem.durable_value pmem)

(* Prefix-oracle violations are a subset of crash-space violations: the
   empty persisted-subset IS the prefix image, so every crash point the
   prefix oracle flags must carry a crash-space witness — ideally one
   with an empty persisted set. *)
let test_prefix_subset () =
  let prog = Nvmir.Parser.parse buggy_hashmap_src in
  let prefix = Runtime.Crash.test ~entry:"main" ~invariant:prefix_invariant prog in
  check Alcotest.bool "prefix oracle flags the bug" true
    (prefix.Runtime.Crash.violations > 0);
  let space = Runtime.Crash_space.test ~entry:"main" ~invariant prog in
  let space_points = Runtime.Crash_space.violation_points space in
  List.iter
    (fun (o : Runtime.Crash.outcome) ->
      if not o.Runtime.Crash.consistent then begin
        check Alcotest.bool
          (Fmt.str "crash point %d also violates in the image space"
             o.Runtime.Crash.crash_point)
          true
          (List.mem o.Runtime.Crash.crash_point space_points);
        (* the witness with nothing persisted reproduces the prefix image *)
        let empty_witness =
          List.exists
            (fun (w : Runtime.Crash_space.witness) ->
              w.Runtime.Crash_space.w_task
              = Runtime.Crash_space.Point o.Runtime.Crash.crash_point
              && w.Runtime.Crash_space.w_persisted = [])
            space.Runtime.Crash_space.witnesses
        in
        check Alcotest.bool "empty-subset witness present" true empty_witness
      end)
    prefix.Runtime.Crash.outcomes

let test_fixed_clean_at_any_bound () =
  let prog = Nvmir.Parser.parse fixed_hashmap_src in
  List.iter
    (fun bound ->
      let r = Runtime.Crash_space.test ~entry:"main" ~bound ~invariant prog in
      check Alcotest.bool
        (Fmt.str "fixed hashmap clean at bound %d" bound)
        true
        (Runtime.Crash_space.consistent r))
    [ 1; 2; 8; 64; 512 ]

(* Synth buggy/fixed pairs, differentially: whenever the prefix oracle's
   invariant-free signal fires (writes never made durable), the image
   space must contain inconsistent images; the fixed twin must be clean
   under the sequential oracle at any bound. *)
let test_synth_pairs () =
  List.iter
    (fun seed ->
      let make pct =
        let cfg =
          {
            Corpus.Synth.default_config with
            Corpus.Synth.nfuncs = 6;
            seed;
            buggy_fraction_pct = pct;
          }
        in
        fst (Corpus.Synth.generate cfg)
      in
      let buggy = make 100 and fixed = make 0 in
      let e = Runtime.Crash.explore ~entry:"main" buggy in
      if e.Runtime.Crash.final_at_risk > 0 then begin
        let r = Runtime.Crash_space.explore ~entry:"main" ~bound:64 buggy in
        check Alcotest.bool
          (Fmt.str "seed %d: buggy synth has inconsistent images" seed)
          true
          (r.Runtime.Crash_space.inconsistent > 0)
      end;
      List.iter
        (fun bound ->
          let r = Runtime.Crash_space.explore ~entry:"main" ~bound fixed in
          check Alcotest.int
            (Fmt.str "seed %d: fixed synth clean at bound %d" seed bound)
            0 r.Runtime.Crash_space.inconsistent)
        [ 8; 256 ])
    [ 1; 2; 3 ]

(* The corpus hashmap's fixed variant under the dependency invariant:
   no reachable image may show nbuckets without buckets[0]. *)
let test_corpus_hashmap_fixed () =
  match Corpus.Registry.find "hashmap" with
  | None -> Alcotest.fail "hashmap corpus program missing"
  | Some p ->
    let fixed =
      match Corpus.Types.parse_fixed p with
      | Some f -> f
      | None -> Alcotest.fail "hashmap has no fixed variant"
    in
    let invariant read =
      let v slot =
        Runtime.Value.to_int (read { Runtime.Pmem.obj_id = 0; slot })
      in
      if v 0 <> 0 && v 1 = 0 then Error "half-initialized map" else Ok ()
    in
    let r =
      Runtime.Crash_space.test ~entry:p.Corpus.Types.entry
        ~args:p.Corpus.Types.entry_args ~invariant fixed
    in
    check Alcotest.bool "fixed corpus hashmap image-space consistent" true
      (Runtime.Crash_space.consistent r);
    check Alcotest.bool "crash points exercised" true
      (r.Runtime.Crash_space.crash_points > 0)

(* Above the bound the explorer samples: the subset count must equal the
   bound exactly, with the sampled flag set. Five persistent objects
   each left dirty give 2^5 = 32 candidate subsets per late point. *)
let test_sampling_caps_enumeration () =
  let prog =
    Nvmir.Parser.parse
      {|
struct cell { v: int }
func main() {
entry:
  a = alloc pmem cell
  b = alloc pmem cell
  c = alloc pmem cell
  d = alloc pmem cell
  e = alloc pmem cell
  store a->v, 1
  store b->v, 2
  store c->v, 3
  store d->v, 4
  store e->v, 5
  ret
}
|}
  in
  let r = Runtime.Crash_space.explore ~entry:"main" ~bound:8 prog in
  let sampled_points =
    List.filter
      (fun (pt : Runtime.Crash_space.point_result) ->
        pt.Runtime.Crash_space.sampled)
      r.Runtime.Crash_space.points
  in
  check Alcotest.bool "some points exceeded the bound" true
    (sampled_points <> []);
  List.iter
    (fun (pt : Runtime.Crash_space.point_result) ->
      check Alcotest.int "sampled point enumerates exactly bound subsets" 8
        pt.Runtime.Crash_space.subsets_enumerated)
    sampled_points;
  (* exhaustive points stay within the bound too *)
  List.iter
    (fun (pt : Runtime.Crash_space.point_result) ->
      check Alcotest.bool "within bound" true
        (pt.Runtime.Crash_space.subsets_enumerated <= 8))
    r.Runtime.Crash_space.points

(* The Figure 9 pattern: a write left volatile at exit is exactly one
   inconsistent image — the completed run's durable state misses it. *)
let test_lost_write_at_exit () =
  let prog =
    Nvmir.Parser.parse
      {|
struct lk { state: int, level: int }
func main() {
entry:
  p = alloc pmem lk
  store p->state, 1
  persist exact p->state
  store p->level, 2
  ret
}
|}
  in
  let r = Runtime.Crash_space.explore ~entry:"main" prog in
  check Alcotest.bool "inconsistency found" true
    (r.Runtime.Crash_space.inconsistent > 0);
  let exit_witness =
    List.exists
      (fun (w : Runtime.Crash_space.witness) ->
        w.Runtime.Crash_space.w_task = Runtime.Crash_space.Exit
        && w.Runtime.Crash_space.w_persisted = [])
      r.Runtime.Crash_space.witnesses
  in
  check Alcotest.bool "witnessed at exit with nothing persisted" true
    exit_witness

(* Determinism: the same seed explores the same images. *)
let test_deterministic () =
  let prog = Nvmir.Parser.parse buggy_hashmap_src in
  let r1 = Runtime.Crash_space.explore ~entry:"main" ~seed:7 prog in
  let r2 = Runtime.Crash_space.explore ~entry:"main" ~seed:7 prog in
  check Alcotest.int "same enumeration" r1.Runtime.Crash_space.images_enumerated
    r2.Runtime.Crash_space.images_enumerated;
  check Alcotest.int "same distinct count"
    r1.Runtime.Crash_space.images_distinct r2.Runtime.Crash_space.images_distinct;
  check Alcotest.int "same verdicts" r1.Runtime.Crash_space.inconsistent
    r2.Runtime.Crash_space.inconsistent

(* The program fan-out agrees with the sequential explorer, at one
   domain and at two: same reports, in job order. *)
let sweep_jobs () =
  let synth seed pct =
    fst
      (Corpus.Synth.generate
         {
           Corpus.Synth.default_config with
           Corpus.Synth.nfuncs = 4;
           seed;
           buggy_fraction_pct = pct;
         })
  in
  List.map
    (fun (name, prog) -> { Deepmc.Crash_sweep.name; prog; entry = "main"; args = [] })
    [
      ("buggy", Nvmir.Parser.parse buggy_hashmap_src);
      ("fixed", Nvmir.Parser.parse fixed_hashmap_src);
      ("synth1", synth 1 100);
      ("synth2", synth 2 30);
    ]

let test_parallel_matches_sequential () =
  let jobs = sweep_jobs () in
  let seq =
    List.map
      (fun (j : Deepmc.Crash_sweep.job) ->
        Runtime.Crash_space.explore ~entry:j.Deepmc.Crash_sweep.entry
          j.Deepmc.Crash_sweep.prog)
      jobs
  in
  List.iter
    (fun domains ->
      let par = Deepmc.Crash_sweep.sweep ~domains jobs in
      check
        Alcotest.(list string)
        (Fmt.str "job order at %d domain(s)" domains)
        [ "buggy"; "fixed"; "synth1"; "synth2" ]
        (List.map (fun (r : Deepmc.Crash_sweep.program_report) -> r.Deepmc.Crash_sweep.name) par);
      List.iter2
        (fun s (r : Deepmc.Crash_sweep.program_report) ->
          check Alcotest.bool
            (Fmt.str "%s at %d domain(s)" r.Deepmc.Crash_sweep.name domains)
            true
            (s = r.Deepmc.Crash_sweep.report))
        seq par)
    [ 1; 2 ]

(* Two jobs may share a name: each still gets its own program's points
   only. *)
let test_sweep_shared_names () =
  let jobs =
    List.map
      (fun (j : Deepmc.Crash_sweep.job) -> { j with Deepmc.Crash_sweep.name = "dup" })
      (sweep_jobs ())
  in
  List.iter2
    (fun (j : Deepmc.Crash_sweep.job) (r : Deepmc.Crash_sweep.program_report) ->
      let want = Runtime.Crash_space.explore ~entry:"main" j.Deepmc.Crash_sweep.prog in
      check Alcotest.int "crash points" want.Runtime.Crash_space.crash_points
        r.Deepmc.Crash_sweep.report.Runtime.Crash_space.crash_points;
      check Alcotest.int "one result per point (+ exit)"
        (want.Runtime.Crash_space.crash_points + 1)
        (List.length r.Deepmc.Crash_sweep.report.Runtime.Crash_space.points);
      check Alcotest.bool "own report" true (want = r.Deepmc.Crash_sweep.report))
    jobs
    (Deepmc.Crash_sweep.sweep ~domains:2 jobs)

(* materialize with no lines persisted is the durable snapshot. *)
let test_materialize_empty_is_snapshot () =
  let prog = Nvmir.Parser.parse buggy_hashmap_src in
  let pmem = Runtime.Pmem.create () in
  let interp = Runtime.Interp.create ~pmem prog in
  ignore (Runtime.Interp.run ~entry:"main" interp);
  let snap = Runtime.Pmem.durable_snapshot pmem in
  let img = Runtime.Pmem.materialize pmem ~persist:[] in
  Hashtbl.iter
    (fun id arr ->
      let arr' =
        match Hashtbl.find_opt img id with
        | Some a -> a
        | None -> Alcotest.fail "object missing from materialized image"
      in
      Array.iteri
        (fun slot v ->
          check Alcotest.bool
            (Fmt.str "obj %d slot %d" id slot)
            true
            (v = arr'.(slot)))
        arr)
    snap

let suite =
  [
    tc "prefix violations are a subset of image-space violations" `Quick
      test_prefix_subset;
    tc "fixed hashmap clean at any bound" `Quick test_fixed_clean_at_any_bound;
    tc "synth buggy/fixed pairs differential" `Quick test_synth_pairs;
    tc "corpus fixed hashmap image-space consistent" `Quick
      test_corpus_hashmap_fixed;
    tc "sampling caps enumeration at the bound" `Quick
      test_sampling_caps_enumeration;
    tc "lost write witnessed at exit (Fig. 9)" `Quick test_lost_write_at_exit;
    tc "exploration is deterministic" `Quick test_deterministic;
    tc "parallel sweep matches sequential explore" `Quick
      test_parallel_matches_sequential;
    tc "sweep keeps jobs that share a name apart" `Quick
      test_sweep_shared_names;
    tc "materialize [] = durable snapshot" `Quick
      test_materialize_empty_is_snapshot;
  ]
