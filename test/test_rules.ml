(* Tests for the static checking rules of Tables 4 and 5: for every
   rule, a minimal program that violates it and a minimal corrected
   program that must stay silent. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let warnings_of ?(model = Analysis.Model.Strict) src =
  let prog = Nvmir.Parser.parse src in
  let result = Analysis.Checker.check ~model prog in
  result.Analysis.Checker.warnings

let rules_fired ?model src =
  List.sort_uniq compare
    (List.map (fun (w : Analysis.Warning.t) -> w.Analysis.Warning.rule)
       (warnings_of ?model src))

let fires ?model rule src =
  check Alcotest.bool
    (Fmt.str "%s fires" (Analysis.Warning.rule_name rule))
    true
    (List.mem rule (rules_fired ?model src))

let silent ?model src =
  check
    Alcotest.(list string)
    "no warnings" []
    (List.map Analysis.Warning.rule_name (rules_fired ?model src))

let header = "struct s { f: int, g: int, h: int }\n"

(* ------------------------------------------------------------------ *)
(* Unflushed write *)

let test_unflushed_write_fires () =
  fires Analysis.Warning.Unflushed_write
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  ret
}
|})

let test_unflushed_write_strict_ok () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist exact p->f
  ret
}
|})

let test_unflushed_write_covered_by_object_flush () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  store p->g, 2
  store p->h, 3
  persist object p
  ret
}
|})

let test_unflushed_write_covered_by_tx_log () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  tx_begin
  tx_add exact p->f
  store p->f, 1
  tx_end
  ret
}
|})

let test_unlogged_write_in_tx_fires () =
  (* Figure 2: a transactional write whose object was never logged *)
  fires Analysis.Warning.Unflushed_write
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  tx_begin
  tx_add exact p->f
  store p->f, 1
  store p->g, 2
  tx_end
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Multiple writes made durable at once *)

let test_multiple_writes_at_once_strict () =
  fires Analysis.Warning.Multiple_writes_at_once
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  q = alloc pmem s
  store p->f, 1
  store q->f, 2
  flush exact p->f
  flush exact q->f
  fence
  ret
}
|})

let test_single_object_batch_is_idiomatic () =
  (* multi-field update of ONE object drained by one barrier is the
     idiomatic atomic-object update, not a violation *)
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  store p->g, 2
  flush exact p->f
  flush exact p->g
  fence
  ret
}
|})

let test_deferred_epoch_durability () =
  fires ~model:Analysis.Model.Epoch Analysis.Warning.Multiple_writes_at_once
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  epoch_end
  epoch_begin
  store p->g, 2
  flush object p
  fence
  epoch_end
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Missing persist barriers *)

let test_missing_barrier_strict () =
  (* Figure 3: flush followed by a transaction with no fence *)
  fires Analysis.Warning.Missing_persist_barrier
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  flush exact p->f
  tx_begin
  tx_add exact p->g
  store p->g, 2
  tx_end
  ret
}
|})

let test_barrier_present_strict () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  flush exact p->f
  fence
  tx_begin
  tx_add exact p->g
  store p->g, 2
  tx_end
  ret
}
|})

let test_missing_barrier_epoch () =
  fires ~model:Analysis.Model.Epoch Analysis.Warning.Missing_persist_barrier
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  flush exact p->f
  epoch_end
  epoch_begin
  store p->g, 2
  flush exact p->g
  fence
  epoch_end
  ret
}
|})

let test_epoch_closed_by_barrier () =
  silent ~model:Analysis.Model.Epoch
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  epoch_begin
  store p->f, 1
  flush exact p->f
  fence
  epoch_end
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Missing persist barriers in nested transactions (Figure 4) *)

let nested_tx_src ~fenced =
  header
  ^ Fmt.str
      {|
func inner(p: ptr s) {
entry:
  tx_begin
  store p->f, 1
  flush exact p->f
%s
  tx_end
  ret
}
func main() {
entry:
  p = alloc pmem s
  tx_begin
  call inner(p)
  store p->g, 2
  flush exact p->g
  fence
  tx_end
  ret
}
|}
      (if fenced then "  fence" else "")

let test_nested_tx_missing_barrier () =
  fires ~model:Analysis.Model.Epoch Analysis.Warning.Missing_barrier_nested_tx
    (nested_tx_src ~fenced:false)

let test_nested_tx_with_barrier_ok () =
  silent ~model:Analysis.Model.Epoch (nested_tx_src ~fenced:true)

(* ------------------------------------------------------------------ *)
(* Semantic mismatch (Figure 1) *)

let test_semantic_mismatch_fires () =
  fires Analysis.Warning.Semantic_mismatch
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist exact p->f
  store p->g, 2
  persist exact p->g
  ret
}
|})

let test_semantic_mismatch_tx_exempt () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  tx_begin
  tx_add exact p->f
  tx_add exact p->g
  store p->f, 1
  store p->g, 2
  tx_end
  ret
}
|})

let test_semantic_mismatch_different_objects_ok () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  q = alloc pmem s
  store p->f, 1
  persist exact p->f
  store q->g, 2
  persist exact q->g
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Strand dependence *)

let strand_src body =
  header
  ^ Fmt.str {|
func main() {
entry:
  p = alloc pmem s
  q = alloc pmem s
%s
  ret
}
|} body

let test_strand_dependence_fires () =
  fires ~model:Analysis.Model.Strand Analysis.Warning.Strand_dependence
    (strand_src
       {|
  strand_begin 1
  store p->f, 1
  flush exact p->f
  strand_end 1
  strand_begin 2
  store p->f, 2
  flush exact p->f
  strand_end 2
  fence
|})

let test_strand_disjoint_ok () =
  silent ~model:Analysis.Model.Strand
    (strand_src
       {|
  strand_begin 1
  store p->f, 1
  flush exact p->f
  strand_end 1
  strand_begin 2
  store q->f, 2
  flush exact q->f
  strand_end 2
  fence
|})

let test_strand_fence_orders () =
  silent ~model:Analysis.Model.Strand
    (strand_src
       {|
  strand_begin 1
  store p->f, 1
  flush exact p->f
  strand_end 1
  fence
  strand_begin 2
  store p->f, 2
  flush exact p->f
  strand_end 2
  fence
|})

(* ------------------------------------------------------------------ *)
(* Multiple flushes (redundant write-backs) *)

let test_multiple_flushes_fires () =
  fires Analysis.Warning.Multiple_flushes
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist exact p->f
  persist exact p->f
  ret
}
|})

let test_reflush_after_write_ok () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist exact p->f
  store p->f, 2
  persist exact p->f
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Flush unmodified *)

let test_flush_never_written () =
  fires Analysis.Warning.Flush_unmodified
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  flush exact p->f
  fence
  ret
}
|})

let test_flush_partial_object () =
  (* Figure 5: whole object persisted, one of three fields written *)
  fires Analysis.Warning.Flush_unmodified
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  persist object p
  ret
}
|})

let test_flush_fully_written_object_ok () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  store p->g, 2
  store p->h, 3
  persist object p
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Persist the same object multiple times in a transaction *)

let test_persist_same_in_tx_fires () =
  fires Analysis.Warning.Persist_same_object_in_tx
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  tx_begin
  tx_add exact p->f
  store p->f, 1
  tx_add exact p->f
  store p->f, 2
  tx_end
  ret
}
|})

let test_log_distinct_fields_ok () =
  silent
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  tx_begin
  tx_add exact p->f
  store p->f, 1
  tx_add exact p->g
  store p->g, 2
  tx_end
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Durable transaction without persistent writes *)

let test_empty_tx_fires () =
  fires Analysis.Warning.Durable_tx_no_writes
    (header ^ {|
func main() {
entry:
  tx_begin
  tx_end
  ret
}
|})

let test_persist_without_write_fires () =
  (* Figure 7: a persist on a path where nothing was modified *)
  fires Analysis.Warning.Durable_tx_no_writes
    (header
   ^ {|
func main(n: int) {
entry:
  p = alloc pmem s
  c = n > 0
  br c, upd, fin
upd:
  store p->f, 1
  store p->g, 2
  store p->h, 3
  br fin
fin:
  persist object p
  ret
}
|})

let test_persist_in_updating_branch_ok () =
  silent
    (header
   ^ {|
func main(n: int) {
entry:
  p = alloc pmem s
  c = n > 0
  br c, upd, fin
upd:
  store p->f, 1
  persist exact p->f
  br fin
fin:
  ret
}
|})

(* ------------------------------------------------------------------ *)
(* Rule catalog sanity *)

let test_catalog_covers_all_rules () =
  List.iter
    (fun rule ->
      match List.find_opt (fun (m : Analysis.Rules.rule_meta) -> m.Analysis.Rules.id = rule) Analysis.Rules.catalog with
      | Some _ -> ()
      | None ->
        Alcotest.fail
          ("rule missing from catalog: " ^ Analysis.Warning.rule_name rule))
    Analysis.Warning.all_rules

let test_applicable_rules_by_model () =
  let strand_rules = Analysis.Rules.applicable_rules Analysis.Model.Strand in
  check Alcotest.bool "strand rule applies to strand model" true
    (List.exists
       (fun (m : Analysis.Rules.rule_meta) ->
         m.Analysis.Rules.id = Analysis.Warning.Strand_dependence)
       strand_rules);
  let strict_rules = Analysis.Rules.applicable_rules Analysis.Model.Strict in
  check Alcotest.bool "strand rule not for strict" false
    (List.exists
       (fun (m : Analysis.Rules.rule_meta) ->
         m.Analysis.Rules.id = Analysis.Warning.Strand_dependence)
       strict_rules)

let test_warning_dedup () =
  let loc = Nvmir.Loc.make ~file:"x.c" ~line:1 in
  let w () =
    Analysis.Warning.make ~rule:Analysis.Warning.Unflushed_write
      ~model:Analysis.Model.Strict ~loc ~fname:"f" "m"
  in
  check Alcotest.int "dedup collapses" 1
    (List.length (Analysis.Warning.dedup [ w (); w (); w () ]))

(* ------------------------------------------------------------------ *)
(* Rule-level edge cases: hand-built traces over the DSG nodes of two
   objects of [s], one test per semantic a rewrite of a rule's
   evaluation could silently change. Event i sits on line i + 1. *)

let edge_prog =
  Nvmir.Parser.parse
    (header
   ^ {|
func main() {
entry:
  p = alloc pmem s
  q = alloc pmem s
  ret
}
|})

let edge_dsg = Dsa.Dsg.build edge_prog

let node v =
  match Dsa.Dsg.node_of_var edge_dsg ~fname:"main" v with
  | Some n -> n
  | None -> Alcotest.failf "no DSG node for %s" v

let whole v = Dsa.Aaddr.whole (node v)
let fld ?(offset = Dsa.Aaddr.Off_exact 0) ?(index = Dsa.Aaddr.No_index) v f =
  { (Dsa.Aaddr.field (node v) f) with Dsa.Aaddr.offset; index }

let trace kinds =
  List.mapi
    (fun i kind ->
      Analysis.Event.make ~fname:"main"
        ~loc:(Nvmir.Loc.make ~file:"edge.c" ~line:(i + 1))
        kind)
    kinds

(* The (rule, line) pairs [rule] emits on [kinds], in emission order. *)
let emitted ?(model = Analysis.Model.Strict) rule kinds =
  let ctx =
    { Analysis.Rules.model; dsg = edge_dsg; tenv = Nvmir.Prog.tenv edge_prog }
  in
  List.map
    (fun (w : Analysis.Warning.t) ->
      (Analysis.Warning.rule_name w.Analysis.Warning.rule,
       w.Analysis.Warning.loc.Nvmir.Loc.line))
    (rule ctx (Analysis.Rules.scope_trace (trace kinds)))

let pairs = Alcotest.(list (pair string int))

open Analysis.Event

let test_edge_log_coverage_unordered () =
  let unflushed = Analysis.Rules.check_unflushed_write in
  check pairs "log earlier in an enclosing tx covers" []
    (emitted unflushed
       [ Tx_begin; Log (fld "p" "f"); Tx_begin; Write (fld "p" "f"); Tx_end; Tx_end ]);
  check pairs "log later in the same tx covers" []
    (emitted unflushed [ Tx_begin; Write (fld "p" "f"); Log (whole "p"); Tx_end ]);
  check pairs "log in a closed sibling tx does not cover"
    [ ("unflushed-write", 5) ]
    (emitted unflushed
       [ Tx_begin; Log (fld "p" "f"); Tx_end; Tx_begin; Write (fld "p" "f"); Tx_end ])

let test_edge_flush_before_write () =
  check pairs "flush before the write does not cover it"
    [ ("unflushed-write", 2) ]
    (emitted Analysis.Rules.check_unflushed_write
       [ Flush (fld "p" "f", Plain); Write (fld "p" "f"); Fence ])

let test_edge_imprecise_flush_covers_nothing () =
  let stride = Dsa.Aaddr.off_stride ~base:0 ~stride:2 in
  check pairs "strided and unknown-offset field flushes cover nothing"
    [ ("unflushed-write", 1); ("unflushed-write", 3) ]
    (emitted Analysis.Rules.check_unflushed_write
       [
         Write (fld "p" "f");
         Flush (fld ~offset:stride "p" "f", Plain);
         Write (fld ~offset:Dsa.Aaddr.Off_top "p" "g");
         Flush (fld ~offset:Dsa.Aaddr.Off_top "p" "g", Plain);
       ])

let test_edge_whole_flush_covers_fields () =
  check pairs "whole-object flush covers every field" []
    (emitted Analysis.Rules.check_unflushed_write
       [
         Write (fld "p" "f");
         Write (fld ~offset:Dsa.Aaddr.Off_top "p" "g");
         Write (fld ~index:(Dsa.Aaddr.Sym_index "i") "p" "h");
         Flush (whole "p", Plain);
         Fence;
       ])

let test_edge_epoch_end_unmatched () =
  let barrier = Analysis.Rules.check_missing_persist_barrier in
  let model = Analysis.Model.Epoch in
  check pairs "unmatched Epoch_end closes the events outside epochs"
    [ ("missing-persist-barrier", 3) ]
    (emitted ~model barrier
       [ Write (fld "p" "f"); Flush (fld "p" "f", Plain); Epoch_end ]);
  check pairs "fenced before the unmatched Epoch_end" []
    (emitted ~model barrier
       [ Write (fld "p" "f"); Flush (fld "p" "f", Plain); Fence; Epoch_end ])

let test_edge_strict_barrier_skips_flushes () =
  let barrier = Analysis.Rules.check_missing_persist_barrier in
  check pairs "every flush of a batch waits for the same next operation"
    [ ("missing-persist-barrier", 1); ("missing-persist-barrier", 2) ]
    (emitted barrier
       [ Flush (fld "p" "f", Plain); Flush (fld "p" "g", Plain); Write (fld "q" "f") ]);
  check pairs "a fence after the batch orders it" []
    (emitted barrier
       [ Flush (fld "p" "f", Plain); Flush (fld "p" "g", Plain); Fence; Write (fld "q" "f") ])

let test_edge_repeated_protocol_exempt () =
  let mismatch = Analysis.Rules.check_semantic_mismatch in
  let split =
    [ Write (fld "p" "f"); Flush (fld "p" "f", Plain); Fence; Write (fld "p" "g") ]
  in
  check pairs "split update fires" [ ("semantic-mismatch", 4) ] (emitted mismatch split);
  check pairs "re-writing the earlier address later in the unit exempts it" []
    (emitted mismatch (split @ [ Write (fld "p" "f") ]))

let test_edge_whole_log_nested_tx () =
  check pairs "whole-object log, partial writes in a nested tx, in event order"
    [ ("flush-unmodified", 2); ("flush-unmodified", 6) ]
    (emitted Analysis.Rules.check_flush_coverage
       [
         Tx_begin;
         Log (whole "p");
         Tx_begin;
         Write (fld "p" "f");
         Tx_end;
         Flush (whole "q", Plain);
         Tx_end;
       ])

let suite =
  [
    tc "unflushed write: fires" `Quick test_unflushed_write_fires;
    tc "unflushed write: flushed ok" `Quick test_unflushed_write_strict_ok;
    tc "unflushed write: object flush covers" `Quick
      test_unflushed_write_covered_by_object_flush;
    tc "unflushed write: tx log covers" `Quick
      test_unflushed_write_covered_by_tx_log;
    tc "unlogged tx write: fires (Fig. 2)" `Quick test_unlogged_write_in_tx_fires;
    tc "multiple writes at once: strict" `Quick
      test_multiple_writes_at_once_strict;
    tc "single-object batch: idiomatic" `Quick
      test_single_object_batch_is_idiomatic;
    tc "deferred epoch durability" `Quick test_deferred_epoch_durability;
    tc "missing barrier: strict (Fig. 3)" `Quick test_missing_barrier_strict;
    tc "missing barrier: fenced ok" `Quick test_barrier_present_strict;
    tc "missing barrier: epoch boundary" `Quick test_missing_barrier_epoch;
    tc "epoch closed by barrier ok" `Quick test_epoch_closed_by_barrier;
    tc "nested tx missing barrier (Fig. 4)" `Quick
      test_nested_tx_missing_barrier;
    tc "nested tx fenced ok" `Quick test_nested_tx_with_barrier_ok;
    tc "semantic mismatch (Fig. 1)" `Quick test_semantic_mismatch_fires;
    tc "semantic mismatch: tx exempt" `Quick test_semantic_mismatch_tx_exempt;
    tc "semantic mismatch: distinct objects ok" `Quick
      test_semantic_mismatch_different_objects_ok;
    tc "strand dependence fires" `Quick test_strand_dependence_fires;
    tc "strand disjoint ok" `Quick test_strand_disjoint_ok;
    tc "strand fence orders" `Quick test_strand_fence_orders;
    tc "multiple flushes fires" `Quick test_multiple_flushes_fires;
    tc "reflush after write ok" `Quick test_reflush_after_write_ok;
    tc "flush never-written data" `Quick test_flush_never_written;
    tc "flush partial object (Fig. 5)" `Quick test_flush_partial_object;
    tc "flush fully-written object ok" `Quick
      test_flush_fully_written_object_ok;
    tc "persist same object in tx" `Quick test_persist_same_in_tx_fires;
    tc "log distinct fields ok" `Quick test_log_distinct_fields_ok;
    tc "empty durable tx fires" `Quick test_empty_tx_fires;
    tc "persist without write (Fig. 7)" `Quick test_persist_without_write_fires;
    tc "persist in updating branch ok" `Quick
      test_persist_in_updating_branch_ok;
    tc "catalog covers all rules" `Quick test_catalog_covers_all_rules;
    tc "applicable rules by model" `Quick test_applicable_rules_by_model;
    tc "warning dedup" `Quick test_warning_dedup;
    tc "edge: log coverage is unordered" `Quick test_edge_log_coverage_unordered;
    tc "edge: flush before the write" `Quick test_edge_flush_before_write;
    tc "edge: strided/unknown flush covers nothing" `Quick
      test_edge_imprecise_flush_covers_nothing;
    tc "edge: whole-object flush covers fields" `Quick
      test_edge_whole_flush_covers_fields;
    tc "edge: Epoch_end without Epoch_begin" `Quick test_edge_epoch_end_unmatched;
    tc "edge: strict barrier skips flushes" `Quick
      test_edge_strict_barrier_skips_flushes;
    tc "edge: repeated-protocol exemption" `Quick test_edge_repeated_protocol_exempt;
    tc "edge: whole-object log, nested tx" `Quick test_edge_whole_log_nested_tx;
  ]
