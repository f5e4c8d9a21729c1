(* Differential test of the single-run crash explorer against the
   re-execution explorer it replaced ([Crash_space_ref]): the same
   crash points, the same subsets in the same order, the same pruning
   and the same witnesses, under the Sequential oracle and a user
   invariant; and the same images, crashed heaps and corruptions for
   the recovery tier. Corpus programs (buggy and fixed), random Synth
   programs, every bound regime (1 and 8 sample, 64 and 256 mostly
   enumerate), an eviction-modelling configuration, and a commit fence
   that fires while its transaction is still open. *)

let tc = Alcotest.test_case
let check = Alcotest.check

module CS = Runtime.Crash_space
module Pmem = Runtime.Pmem

(* a user invariant that holds on some images and fails on others, with
   a detail that depends on the image *)
let invariant read =
  let v obj_id slot = Runtime.Value.to_int (read { Pmem.obj_id; slot }) in
  let sum = v 0 0 + (2 * v 0 1) + (3 * v 1 0) + (5 * v 1 2) + (7 * v 2 1) in
  if sum mod 3 = 1 then Error (Fmt.str "weighted sum %d" sum) else Ok ()

let oracles = [ ("sequential", CS.Sequential); ("invariant", CS.Invariant invariant) ]
let bounds = [ 1; 8; 64; 256 ]

let pp_point ppf (p : CS.point_result) =
  Fmt.pf ppf "%a: %d lines, %d subsets, %d distinct, sampled %b, witnesses [%a]"
    CS.pp_task p.CS.task p.CS.candidate_lines p.CS.subsets_enumerated
    p.CS.distinct_images p.CS.sampled
    Fmt.(list ~sep:(any "; ") CS.pp_witness)
    p.CS.witnesses

(* The first point where the two explorers differ, if any. *)
let explore_disagreement ?config ~entry ~args ~bound ~oracle prog =
  let r = CS.explore ?config ~entry ~args ~bound ~oracle prog in
  let total, want =
    Crash_space_ref.explore ?config ~entry ~args ~bound ~oracle prog
  in
  if r.CS.crash_points <> total then
    Some (Fmt.str "crash points %d, reference %d" r.CS.crash_points total)
  else
    let rec first = function
      | p :: ps, q :: qs ->
        if p = q then first (ps, qs)
        else Some (Fmt.str "got %a@ want %a" pp_point p pp_point q)
      | [], [] -> None
      | _ -> Some "different numbers of points"
    in
    first (r.CS.points, want)

(* What the recovery tier reads at one crash point: each distinct image
   with its persisted lines, the heap's objects and names, and the
   corruption a fixed seed draws from the heap for each image. *)
let image_view pmem (images : CS.crash_image list) sampled =
  let sorted tbl =
    Hashtbl.fold (fun id arr acc -> (id, Array.copy arr) :: acc) tbl []
    |> List.sort compare
  in
  let objects =
    List.map (fun id -> (id, Pmem.obj_name pmem id)) (Pmem.live_objects pmem)
  in
  ( sampled,
    objects,
    List.map
      (fun (ci : CS.crash_image) ->
        let copy = Hashtbl.copy ci.CS.ci_image in
        Hashtbl.filter_map_inplace (fun _ a -> Some (Array.copy a)) copy;
        ( ci.CS.ci_task,
          ci.CS.ci_persisted,
          sorted ci.CS.ci_image,
          Pmem.corrupt_image pmem ~seed:11 copy ))
      images )

let images_disagreement ?config ~entry ~args ~bound prog =
  let got = ref [] in
  let n =
    CS.iter_images ?config ~entry ~args ~bound
      (fun pmem images sampled -> got := image_view pmem images sampled :: !got)
      prog
  in
  let total, tasks = Crash_space_ref.tasks ?config ~entry ~args prog in
  let want =
    List.map
      (fun task ->
        let pmem, images, sampled =
          Crash_space_ref.crash_images ?config ~entry ~args ~bound ~task prog
        in
        image_view pmem images sampled)
      tasks
  in
  if n <> total then Some (Fmt.str "crash points %d, reference %d" n total)
  else if List.rev !got <> want then Some "recovery images differ"
  else None

let agree ?config ~name ~entry ~args ?(bounds = bounds) ?(oracles = oracles)
    prog =
  List.iter
    (fun bound ->
      List.iter
        (fun (oname, oracle) ->
          match explore_disagreement ?config ~entry ~args ~bound ~oracle prog with
          | None -> ()
          | Some d -> Alcotest.failf "%s, bound %d, %s oracle: %s" name bound oname d)
        oracles;
      match images_disagreement ?config ~entry ~args ~bound prog with
      | None -> ()
      | Some d -> Alcotest.failf "%s, bound %d, recovery images: %s" name bound d)
    bounds

let corpus_programs () =
  List.concat_map
    (fun (p : Corpus.Types.program) ->
      let entry = p.Corpus.Types.entry and args = p.Corpus.Types.entry_args in
      (p.Corpus.Types.name, entry, args, Corpus.Types.parse p)
      ::
      (match Corpus.Types.parse_fixed p with
      | Some f -> [ (p.Corpus.Types.name ^ "/fixed", entry, args, f) ]
      | None -> []))
    Corpus.Registry.all

let test_corpus () =
  List.iter
    (fun (name, entry, args, prog) -> agree ~name ~entry ~args prog)
    (corpus_programs ())

let eviction = { Runtime.Config.default with Runtime.Config.track_eviction = true }

let test_eviction () =
  List.iter
    (fun (name, entry, args, prog) ->
      agree ~config:eviction ~name ~entry ~args ~bounds:[ 8; 256 ] prog)
    (corpus_programs ())

let synth ~seed ~nfuncs ~buggy ~ptr_arith =
  fst
    (Corpus.Synth.generate
       {
         Corpus.Synth.default_config with
         Corpus.Synth.seed;
         nfuncs;
         buggy_fraction_pct = buggy;
         ptr_arith;
       })

(* The reference re-executes the program once per crash point, so each
   case draws one bound and one oracle. *)
let prop_synth =
  QCheck.Test.make ~name:"single run = re-execution (synth)" ~count:15
    (QCheck.make
       ~print:(fun ((seed, nfuncs), (buggy, ptr_arith), (bound, (oname, _), evict)) ->
         Fmt.str "seed=%d nfuncs=%d buggy=%d%% ptr_arith=%b bound=%d oracle=%s \
                  eviction=%b"
           seed nfuncs buggy ptr_arith bound oname evict)
       QCheck.Gen.(
         triple
           (pair (int_bound 10_000) (int_range 2 8))
           (pair (oneofl [ 0; 30; 100 ]) bool)
           (triple (oneofl bounds) (oneofl oracles) bool)))
    (fun ((seed, nfuncs), (buggy, ptr_arith), (bound, oracle, evict)) ->
      let prog = synth ~seed ~nfuncs ~buggy ~ptr_arith in
      let config = if evict then Some eviction else None in
      agree ?config ~name:"synth" ~entry:"main" ~args:[] ~bounds:[ bound ]
        ~oracles:[ oracle ] prog;
      true)

(* tx_end commits by flushing the logged slots and fencing; that fence
   is a crash point of its own, notified before the transaction leaves
   the stack, so its images still roll the transaction back even though
   the data is already durable. *)
let commit_src =
  {|
struct pair { a: int, b: int }
func main() {
entry:
  p = alloc pmem pair
  tx_begin
  tx_add exact p->a
  store p->a, 4
  store p->b, 5
  tx_end
  ret
}
|}

let test_commit_fence () =
  let prog = Nvmir.Parser.parse commit_src in
  agree ~name:"commit fence" ~entry:"main" ~args:[] prog;
  (* events: tx_begin, store a, store b, commit fence, tx_end *)
  let a_at = ref [] in
  let n =
    CS.iter_images
      (fun _ images _ ->
        match images with
        | { CS.ci_task = CS.Point k; ci_image; _ } :: _ ->
          a_at := (k, (Hashtbl.find ci_image 0).(0)) :: !a_at
        | _ -> ())
      prog
  in
  check Alcotest.int "five crash points" 5 n;
  let a k = List.assoc k !a_at in
  check Alcotest.bool "commit fence: a rolled back" true
    (Runtime.Value.equal (a 4) Runtime.Value.Vnull);
  check Alcotest.bool "after tx_end: a durable" true
    (Runtime.Value.equal (a 5) (Runtime.Value.Vint 4))

(* Two stores in flight together: the image where only the second
   reached NVM matches no prefix of the write sequence, the others do. *)
let test_reordered_image () =
  let prog =
    Nvmir.Parser.parse
      {|
struct cell { v: int }
func main() {
entry:
  a = alloc pmem cell
  b = alloc pmem cell
  store a->v, 1
  store b->v, 2
  persist exact a->v
  persist exact b->v
  ret
}
|}
  in
  agree ~name:"reordered image" ~entry:"main" ~args:[] prog;
  let r = CS.explore ~entry:"main" prog in
  check
    Alcotest.(list (list (pair int int)))
    "only b persisted, at the second store" [ [ (1, 0) ] ]
    (List.filter_map
       (fun (w : CS.witness) ->
         if w.CS.w_task = CS.Point 2 then Some w.CS.w_persisted else None)
       r.CS.witnesses)

let suite =
  [
    tc "corpus: single run = re-execution" `Quick test_corpus;
    tc "corpus with eviction: single run = re-execution" `Quick test_eviction;
    QCheck_alcotest.to_alcotest prop_synth;
    tc "commit fence inside an open transaction" `Quick test_commit_fence;
    tc "reordered image matches no prefix" `Quick test_reordered_image;
  ]
