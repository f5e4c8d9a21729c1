(* Tests for the IR interpreter: evaluation, control flow, calls,
   place resolution, pointer arithmetic, and error handling. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let run ?(entry = "main") ?(args = []) src =
  let prog = Nvmir.Parser.parse src in
  let pmem = Runtime.Pmem.create () in
  let interp = Runtime.Interp.create ~pmem prog in
  let v = Runtime.Interp.run ~entry ~args interp in
  (v, pmem)

let ret_int ?entry ?args src = Runtime.Value.to_int (fst (run ?entry ?args src))

let test_arithmetic () =
  check Alcotest.int "arith" 17
    (ret_int
       {|
func main() -> int {
entry:
  a = 5
  b = a * 3
  c = b + 2
  ret c
}
|})

let test_branches_and_loops () =
  check Alcotest.int "sum 1..10" 55
    (ret_int
       {|
func main() -> int {
entry:
  i = 0
  acc = 0
  br loop
loop:
  i = i + 1
  acc = acc + i
  c = i < 10
  br c, loop, fin
fin:
  ret acc
}
|})

let test_calls_and_args () =
  check Alcotest.int "fib 10" 55
    (ret_int
       {|
func fib(n: int) -> int {
entry:
  c = n < 2
  br c, base, rec
base:
  ret n
rec:
  a = n - 1
  b = n - 2
  x = call fib(a)
  y = call fib(b)
  z = x + y
  ret z
}
func main() -> int {
entry:
  r = call fib(10)
  ret r
}
|})

let test_struct_fields_and_arrays () =
  check Alcotest.int "field/array round trip" 42
    (ret_int
       {|
struct s { n: int, items: int[8] }
func main() -> int {
entry:
  p = alloc pmem s
  store p->n, 2
  i = load p->n
  store p->items[i], 42
  r = load p->items[2]
  ret r
}
|})

let test_pointer_chase () =
  check Alcotest.int "p->next->val" 9
    (ret_int
       {|
struct cell { val: int, next: ptr cell }
func main() -> int {
entry:
  a = alloc pmem cell
  b = alloc pmem cell
  store b->val, 9
  store a->next, b
  r = load a->next->val
  ret r
}
|})

let test_addr_of_and_interior_pointer () =
  check Alcotest.int "store through &p->g" 7
    (ret_int
       {|
struct s { f: int, g: int }
func set(cellp: ptr int) {
entry:
  store cellp, 7
  ret
}
func main() -> int {
entry:
  p = alloc pmem s
  a = addr p->g
  call set(a)
  r = load p->g
  ret r
}
|})

let test_pointer_arithmetic () =
  check Alcotest.int "q = p + 1 addresses next slot" 5
    (ret_int
       {|
struct s { f: int, g: int }
func main() -> int {
entry:
  p = alloc pmem s
  q = p + 1
  store q, 5
  r = load p->g
  ret r
}
|})

let test_entry_args () =
  check Alcotest.int "argument passed" 12
    (ret_int ~args:[ 6 ]
       {|
func main(n: int) -> int {
entry:
  r = n * 2
  ret r
}
|})

let test_runtime_errors () =
  let expect_error src =
    match run src with
    | exception Runtime.Interp.Runtime_error _ -> ()
    | _ -> Alcotest.fail "expected runtime error"
  in
  expect_error {|
func main() {
entry:
  store p->f, 1
  ret
}
|};
  expect_error
    {|
struct s { f: int }
func main() {
entry:
  p = alloc pmem s
  q = load p->f
  store q->f, 1
  ret
}
|};
  expect_error {|
func main() {
entry:
  call ghost()
  ret
}
|}

let test_fuel_limit () =
  let prog =
    Nvmir.Parser.parse
      {|
func main() {
entry:
  br spin
spin:
  br spin
}
|}
  in
  let pmem = Runtime.Pmem.create () in
  let interp = Runtime.Interp.create ~fuel:1000 ~pmem prog in
  match Runtime.Interp.run ~entry:"main" interp with
  | exception Runtime.Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected Out_of_fuel"

(* Runaway recursion, direct or mutual, stops at the call-depth bound
   with its own error, long before the fuel runs out; recursion just
   inside the bound still runs. *)
let depth_error src =
  let t0 = Unix.gettimeofday () in
  (match run src with
  | exception Runtime.Interp.Call_depth_exceeded _ -> ()
  | _ -> Alcotest.fail "expected Call_depth_exceeded");
  check Alcotest.bool "fails fast" true (Unix.gettimeofday () -. t0 < 1.)

let test_call_depth_bound () =
  depth_error {|
func main() {
entry:
  call main()
  ret
}
|};
  depth_error
    {|
func ping(n: int) {
entry:
  m = n + 1
  call pong(m)
  ret
}
func pong(n: int) {
entry:
  call ping(n)
  ret
}
func main() {
entry:
  call ping(0)
  ret
}
|};
  (* main's call to down plus n recursive ones: exactly the bound *)
  let n = Runtime.Interp.max_call_depth - 1 in
  check Alcotest.int "depth at the bound" n
    (ret_int ~args:[ n ]
       {|
func down(n: int) -> int {
entry:
  c = n < 1
  br c, base, rec
base:
  ret 0
rec:
  m = n - 1
  r = call down(m)
  s = r + 1
  ret s
}
func main(n: int) -> int {
entry:
  r = call down(n)
  ret r
}
|})

let test_division_by_zero () =
  match
    run {|
func main() -> int {
entry:
  a = 1
  b = 0
  c = a / b
  ret c
}
|}
  with
  | exception Runtime.Interp.Runtime_error (m, _) ->
    check Alcotest.string "message" "division by zero" m
  | _ -> Alcotest.fail "expected division error"

let test_persistence_through_interp () =
  let _, pmem =
    run
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 3
  persist exact p->f
  store p->g, 4
  ret
}
|}
  in
  check Alcotest.int "persisted field durable" 3
    (Runtime.Value.to_int
       (Runtime.Pmem.durable_value pmem { Runtime.Pmem.obj_id = 0; slot = 0 }));
  check Alcotest.int "unpersisted field not durable" 0
    (Runtime.Value.to_int
       (Runtime.Pmem.durable_value pmem { Runtime.Pmem.obj_id = 0; slot = 1 }))

(* every generated program must execute cleanly *)
let prop_synth_programs_run =
  QCheck.Test.make ~name:"generated programs execute" ~count:20
    QCheck.(map abs int)
    (fun seed ->
      let cfg = { Corpus.Synth.default_config with seed; nfuncs = 10 } in
      let prog, _ = Corpus.Synth.generate cfg in
      let pmem = Runtime.Pmem.create () in
      let interp = Runtime.Interp.create ~pmem prog in
      match Runtime.Interp.run ~entry:"main" interp with
      | _ -> true
      | exception Runtime.Interp.Out_of_fuel -> false
      | exception Runtime.Interp.Runtime_error _ -> false)

let suite =
  [
    tc "arithmetic" `Quick test_arithmetic;
    tc "branches and loops" `Quick test_branches_and_loops;
    tc "recursive calls" `Quick test_calls_and_args;
    tc "call-depth bound" `Quick test_call_depth_bound;
    tc "struct fields and arrays" `Quick test_struct_fields_and_arrays;
    tc "pointer chase" `Quick test_pointer_chase;
    tc "address-of and interior pointers" `Quick
      test_addr_of_and_interior_pointer;
    tc "pointer arithmetic" `Quick test_pointer_arithmetic;
    tc "entry arguments" `Quick test_entry_args;
    tc "runtime errors" `Quick test_runtime_errors;
    tc "fuel limit" `Quick test_fuel_limit;
    tc "division by zero" `Quick test_division_by_zero;
    tc "persistence through execution" `Quick test_persistence_through_interp;
    QCheck_alcotest.to_alcotest prop_synth_programs_run;
  ]
