(* Host speed. The benchmark runs on a few cores of a shared host whose
   speed drifts, over seconds and over minutes, by a fifth or more while
   the container runs nothing else: the same work, timed in two runs a
   minute apart, differs by as much. A raw time is then mostly a reading
   of the host. So each phase of a run also times a fixed kernel of the
   benchmark's own in short bursts between operations, and the
   end-to-end times are reported at the speed of a reference host:
   scaled by [reference_ms] over the kernel's median time in the same
   phase. The raw times are printed beside them.

   The kernel looks up keys in a balanced tree and a hash table and
   copies 2 MB between two buffers: pointer chasing and memory traffic,
   which is what drifts most. Timed beside the workloads, it takes out
   half to two thirds of the run-to-run spread of their times. It is
   benchmark code that allocates nothing on the OCaml heap, and each
   burst first runs it untimed, so neither a change to the program nor
   the state the program leaves in the caches and the heap moves its
   time: the scaled times move as the raw ones would on a steady host. *)

module IM = Map.Make (Int)

let keys = Array.init 4096 (fun i -> i * 7919 mod 10_007)
let tree = Array.fold_left (fun m k -> IM.add k k m) IM.empty keys

let table =
  let h = Hashtbl.create 4096 in
  Array.iter (fun k -> Hashtbl.replace h k k) keys;
  h

(* Off the OCaml heap: megabytes of live data on it change how the
   garbage collector paces itself, and so the program's heap. *)
let words = 1 lsl 18
let buffer () = Bigarray.(Array1.init int c_layout words (fun i -> i))
let src = buffer ()
let dst = buffer ()

let kernel () =
  let s = ref 0 in
  Array.iter (fun k -> s := !s + IM.find k tree + Hashtbl.find table k) keys;
  for i = 0 to words - 1 do
    Bigarray.Array1.unsafe_set dst i (Bigarray.Array1.unsafe_get src i + 1)
  done;
  ignore (Sys.opaque_identity (!s + Bigarray.Array1.unsafe_get dst (words - 1)))

(* The kernel's median time on the reference host, a 2-vCPU x86_64
   virtual machine (Intel Xeon, 2.1 GHz) with OCaml 5.1.1. It only sets
   the scale: times read in ms of that host. *)
let reference_ms = 1.2

let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9

(* One phase's kernel times (ms), and the seconds the samples took. *)
type t = { mutable times : float list; mutable spent : float; mutable last : float }

let create () = { times = []; spent = 0.; last = neg_infinity }

(* A burst of kernel runs. The first ones write the program's data out
   of the caches and bring the kernel's in, so that the timed ones see
   the same caches whatever the program was doing. *)
let warm = 3
let timed = 5

let sample h =
  let t0 = now_s () in
  for _ = 1 to warm do kernel () done;
  for _ = 1 to timed do
    let t1 = now_s () in
    kernel ();
    h.times <- ((now_s () -. t1) *. 1000.) :: h.times
  done;
  let t2 = now_s () in
  h.spent <- h.spent +. (t2 -. t0);
  h.last <- t2

(* Called between operations: one burst per [interval] of the phase. *)
let interval = 0.5

let tick h = if now_s () -. h.last >= interval then sample h

let kernel_ms h =
  match List.sort Float.compare h.times with
  | [] -> invalid_arg "Host.kernel_ms: no samples"
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Multiplies a time measured in this phase into the reference host's
   time; a rate is divided by it instead. *)
let scale h = reference_ms /. kernel_ms h
