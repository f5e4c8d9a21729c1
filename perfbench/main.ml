(* DeepMC benchmark: time-to-verdict and verdict correctness.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--tiny] [--wrong-reference]

   Load is a closed loop with one client: each operation (one program
   check, one daemon request or one tier run) is submitted after the
   previous verdict returns, and every verdict is scored against ground
   truth that does not come from the checker. The pool runs at its
   default size.

   --trace 0 measures the end-to-end metrics with tracing off; their
   times are reported at the speed of a reference host (see [Host]),
   the raw ones in a comment line beside them.
   --trace 1 measures the per-layer split instead: the same operations
   untraced and with Obs spans around every layer call the workload
   makes, in alternating blocks, and writes one Chrome trace file to
   _perfbench/. --tiny shrinks every workload for the self-test;
   --wrong-reference scores against a deliberately wrong reference,
   which must make operations fail.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Common

let workloads =
  [
    ("synth-deep", Synth_deep.why, Synth_deep.setup);
    ("corpus-edit", Corpus_edit.why, Corpus_edit.setup);
    ("runtime-campaign", Runtime_campaign.why, Runtime_campaign.setup);
  ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  wrong : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny] \
     [--wrong-reference]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = -1;
        seconds = -1.;
        trace = false;
        tiny = false;
        wrong = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--tiny" :: rest -> a := { !a with tiny = true }; go rest
    | "--wrong-reference" :: rest -> a := { !a with wrong = true }; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.exists (fun (n, _, _) -> n = !a.workload) workloads))
     || !a.seed < 0 || !a.seconds <= 0.
  then usage ();
  !a

(* ------------------------------------------------------------------ *)
(* Measurement *)

let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9

let percentile sorted p =
  let n = Float.Array.length sorted in
  let get = Float.Array.get sorted in
  if n = 0 then 0.
  else
    let x = p *. float (n - 1) in
    let i = int_of_float x in
    let f = x -. float i in
    if i + 1 >= n then get (n - 1) else get i +. (f *. (get (i + 1) -. get i))

let sorted_copy a n =
  let s = Float.Array.sub a 0 n in
  Float.Array.sort Float.compare s;
  s

let median l =
  let a = Float.Array.of_list l in
  percentile (sorted_copy a (Float.Array.length a)) 0.5

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Start the high-water mark afresh, so peak_rss_mb covers the measured
   phase (with the inputs set-up left resident) rather than the garbage
   of repeated set-ups. Linux: writing 5 to clear_refs resets VmHWM. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable notes : string list;  (** first failures, for the log *)
}

let tally () = { attempted = 0; failed = 0; wrong = 0; notes = [] }

let record t (op : op) outcome =
  t.attempted <- t.attempted + 1;
  let note msg =
    t.failed <- t.failed + 1;
    let note = op.label ^ ": " ^ msg in
    if List.length t.notes < 8 && not (List.mem note t.notes) then
      t.notes <- note :: t.notes
  in
  match outcome with
  | Pass -> ()
  | Failed msg -> note ("failed: " ^ msg)
  | Wrong msg ->
    t.wrong <- t.wrong + 1;
    note ("wrong verdict: " ^ msg)

(* Per-operation wall times in ms. The buffer is allocated (and its
   pages touched) before the measured phase and holds more samples than
   the fastest workload records in a minute, so peak_rss_mb carries it
   as a constant rather than growing with throughput. *)
type samples = { mutable buf : Float.Array.t; mutable len : int }

let samples () = { buf = Float.Array.make (1 lsl 19) 0.; len = 0 }

let push s x =
  if s.len = Float.Array.length s.buf then begin
    let b = Float.Array.make (2 * s.len) 0. in
    Float.Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  Float.Array.set s.buf s.len x;
  s.len <- s.len + 1

(* Run operations from [ops] until [seconds] have passed and at least
   [min_ops] ran, or until [limit] operations ran, recording each one's
   wall time and sampling [host] between them; returns the elapsed
   seconds, less the samples' time. *)
let closed_loop ?(limit = max_int) ?(min_ops = 0) ~seconds ?(each = submit) ~host t lat
    (ops : op Seq.t) =
  let t_start = now_s () and spent = host.Host.spent in
  let rec go seq n =
    let stop = n >= limit || (n >= min_ops && now_s () -. t_start >= seconds) in
    if not stop then
      match seq () with
      | Seq.Nil -> ()
      | Seq.Cons (op, rest) ->
        Host.tick host;
        let t0 = now_s () in
        let score = each op in
        push lat ((now_s () -. t0) *. 1000.);
        record t op (outcome score);
        go rest (n + 1)
  in
  go ops 0;
  now_s () -. t_start -. (host.Host.spent -. spent)

(* ------------------------------------------------------------------ *)
(* Spans: self time per layer *)

let mine name = name = "op" || String.contains name '.'

let layer_of name =
  match String.index_opt name '.' with
  | None -> "other"
  | Some i -> (
    match String.sub name 0 i with "crash" | "interp" -> "runtime" | l -> l)

let layers =
  [ "other"; "nvmir"; "dsa"; "trace"; "rules"; "checker"; "serve"; "runtime";
    "recover"; "fuzz"; "inject" ]

(* inclusive ns per span name, and self ns per layer inside "op" spans *)
let incl : (string, float) Hashtbl.t = Hashtbl.create 64
let self_in_op : (string, float) Hashtbl.t = Hashtbl.create 16
let op_ns = ref 0.

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Events come grouped by track, oldest first, with balanced B/E pairs.
   Library spans (hyphenated names) are skipped: their time stays with
   the benchmark span around them. *)
let account (events : Obs.Span.event list) =
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Span.event) ->
      if mine e.Obs.Span.ev_name then
        match e.Obs.Span.ev_ph with
        | Obs.Span.Begin -> stack := (e, ref 0.) :: !stack
        | Obs.Span.End -> (
          match !stack with
          | [] -> ()
          | (b, children) :: rest ->
            stack := rest;
            let dur = Int64.to_float (Int64.sub e.Obs.Span.ev_ts_ns b.Obs.Span.ev_ts_ns) in
            let name = b.Obs.Span.ev_name in
            bump incl name dur;
            let in_op = name = "op" || List.exists (fun (p, _) -> p.Obs.Span.ev_name = "op") rest in
            if in_op then bump self_in_op (layer_of name) (dur -. !children);
            if name = "op" then op_ns := !op_ns +. dur;
            match rest with (_, pc) :: _ -> pc := !pc +. dur | [] -> ()))
    events

(* ------------------------------------------------------------------ *)
(* Output *)

let host_line args why =
  Fmt.pr "# workload %s, seed %d, %gs: %s@." args.workload args.seed args.seconds why;
  Fmt.pr "# host: nproc %d, OCaml %s, pool domains %d@."
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Pool.size (Pool.default ()))

(* The result line. Metric names and units are plain ASCII, which %S
   quotes as JSON does; values print with all 17 significant digits. *)
let emit ~correct ~defects (t : tally) metrics =
  List.iter (fun d -> Fmt.pr "# known defect, not measured: %s@." d) defects;
  List.iter (fun n -> Fmt.pr "# %s@." n) (List.rev t.notes);
  List.iter (fun (name, v, unit) -> Fmt.pr "%-40s %14.6g %s@." name v unit) metrics;
  let metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct t.attempted t.failed
    (String.concat ", " (List.map metric metrics))

(* Each set-up is preceded by this many bursts of host samples. *)
let setup_bursts = 4

let timed_setup ~host args setup =
  Gc.full_major ();
  for _ = 1 to setup_bursts do Host.sample host done;
  let t0 = now_s () in
  let m = setup ~seed:args.seed ~tiny:args.tiny ~wrong:args.wrong in
  (m, now_s () -. t0)

(* Set-up is timed several times before the measured phase and reports
   the median, so that it rests on enough samples to stand above the
   host's noise: at least three, and more while they add up to less than
   three seconds. The last one's inputs are used. (Set-ups timed after
   the measured phase run a tenth faster on corpus-edit, on state the
   measured phase left warm, so none are.) Set-up time and the measured
   phase's times are reported at the reference host's speed (see
   [Host]), each scaled by the host samples of its own phase. *)
let end_to_end args setup =
  let setup_host = Host.create () in
  let rec set_up times =
    let m, dt = timed_setup ~host:setup_host args setup in
    let times = dt :: times in
    let n = List.length times in
    if args.tiny || n >= 40 || (n >= 3 && List.fold_left ( +. ) 0. times >= 3.) then (m, times)
    else set_up times
  in
  let inputs, times = set_up [] in
  let lat = samples () in
  Gc.compact ();
  reset_peak_rss ();
  let t = tally () in
  let host = Host.create () in
  let defects = inputs.defects in
  let elapsed = closed_loop ~seconds:args.seconds ~host t lat (inputs.stream ()) in
  if t.attempted < 100 && not args.tiny then
    Fmt.epr "warning: %d operations; verdict_ms_p90 needs at least 100@." t.attempted;
  let sorted = sorted_copy lat.buf lat.len in
  let setup_s = median times and ops_per_s = float t.attempted /. elapsed in
  let p50 = percentile sorted 0.5 and p90 = percentile sorted 0.9 in
  Fmt.pr "# host kernel: %.4f ms in set-up, %.4f ms measured (reference %.4f ms)@."
    (Host.kernel_ms setup_host) (Host.kernel_ms host) Host.reference_ms;
  Fmt.pr "# raw: setup_s %.6g, ops_per_s %.6g, verdict_ms_p50 %.6g, verdict_ms_p90 %.6g@."
    setup_s ops_per_s p50 p90;
  let at_reference = Host.scale host in
  emit ~correct:(t.wrong = 0) ~defects t
    [
      ("setup_s", setup_s *. Host.scale setup_host, "s");
      ("ops_per_s", ops_per_s /. at_reference, "ops/s");
      ("verdict_ms_p50", p50 *. at_reference, "ms");
      ("verdict_ms_p90", p90 *. at_reference, "ms");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]

(* The trace file holds the spans of the first traced operations, up to
   this many; later spans are accounted and dropped as they come. *)
let trace_file_ops = 1_000

(* Untraced and traced operations alternate in blocks this long. *)
let block = 8

let trace_dir = "_perfbench"

let per_layer args setup =
  layered := true;
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  let inputs = setup ~seed:args.seed ~tiny:args.tiny ~wrong:args.wrong in
  let pool = Pool.default () in
  let pool_totals () =
    List.fold_left
      (fun (c, b) (w : Pool.worker_stat) -> (c + w.Pool.claims, Int64.add b w.Pool.busy_ns))
      (0, 0L) (Pool.worker_stats pool)
  in
  let claims = ref 0 and busy = ref 0L and wall = ref 0. in
  let mismatch = ref None in
  let before = Obs.Metrics.snapshot () in
  (* the pool figures and [wall] cover the operation's span only; the
     reference runs after them *)
  let traced op =
    Obs.set_enabled true;
    let c0, b0 = pool_totals () in
    let t0 = now_s () in
    let score = span "op" (fun () -> submit op) in
    wall := !wall +. (now_s () -. t0);
    let c1, b1 = pool_totals () in
    claims := !claims + c1 - c0;
    busy := Int64.add !busy (Int64.sub b1 b0);
    let o = outcome score in
    let r = match op.reference () with None -> Pass | Some m -> Wrong m | exception e -> failed e in
    Obs.set_enabled false;
    (match r with
    | Pass -> ()
    | Wrong m | Failed m -> if !mismatch = None then mismatch := Some (op.label ^ ": " ^ m));
    fun () -> o
  in
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  let file = Filename.concat trace_dir (Fmt.str "%s-seed%d.trace.json" args.workload args.seed) in
  let written = ref false in
  let drain () =
    account (Obs.Span.events ());
    Obs.Span.reset ()
  in
  (* The same operations run untraced (the baseline for the tracing
     overhead) and traced, from two fresh streams, in alternating short
     blocks, so that the host's drift falls on both alike; for at least
     [seconds], and at least one pass, so that the traced operations
     cover every input size. *)
  let lat_u = samples () and lat_t = samples () in
  let untraced = tally () and t = tally () in
  let host = Host.create () in
  let next_u = Seq.to_dispenser (inputs.stream ()) in
  let next_t = Seq.to_dispenser (inputs.stream ()) in
  let t_start = now_s () in
  while t.attempted < inputs.pass || now_s () -. t_start < args.seconds do
    ignore
      (closed_loop ~limit:block ~seconds:infinity ~host untraced lat_u (Seq.of_dispenser next_u));
    ignore
      (closed_loop ~limit:block ~seconds:infinity ~each:traced ~host t lat_t
         (Seq.of_dispenser next_t));
    if !written then drain ()
    else if t.attempted >= trace_file_ops then begin
      Obs.Span.write_file file;
      written := true;
      drain ()
    end
  done;
  if not !written then begin
    Obs.Span.write_file file;
    drain ()
  end;
  let counters = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
  Fmt.pr "# trace: %s@." file;
  List.iter
    (fun (k, v) -> Fmt.pr "# counter %s %d@." k (Obs.Metrics.int_of_value v))
    counters;
  let ops = float (max 1 t.attempted) in
  let per_op_ms name = Option.value ~default:0. (Hashtbl.find_opt incl name) /. 1e6 /. ops in
  let rate num ns = if ns > 0. then num /. (ns /. 1e9) else 0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let levels = [ "hit"; "partial"; "miss" ] in
  let requests = List.fold_left (fun acc l -> acc +. sum ("serve.n." ^ l)) 0. levels in
  let steals =
    match Obs.Metrics.find counters "pool.steals" with
    | Some v -> float (Obs.Metrics.int_of_value v)
    | None -> 0.
  in
  let domains = Pool.size pool in
  let ms name = (name ^ "_ms", per_op_ms name, "ms") in
  let metrics =
    [
      ms "nvmir.parse";
      ("nvmir.parse_kb_per_s", rate (sum "nvmir.bytes" /. 1024.) (per_op_ms "nvmir.parse" *. ops *. 1e6), "kB/s");
      ms "dsa.build";
      ms "trace.stream_setup";
      ms "trace.expand";
      ("trace.paths", sum "trace.paths" /. ops, "count");
      ("trace.events", sum "trace.events" /. ops, "count");
      ("trace.events_per_path_max", peak_of "trace.events_per_path_max", "count");
      ("trace.peak_live_paths", peak_of "trace.peak_live_paths", "count");
      ms "rules.eval";
      ms "rules.scope";
    ]
    @ List.map (fun (name, _) -> ms name) Replica.rules
    @ [
        ("rules.events_per_s.short", rate (sum "rules.events.short") (sum "rules.ns.short"), "1/s");
        ("rules.events_per_s.long", rate (sum "rules.events.long") (sum "rules.ns.long"), "1/s");
        ms "checker.check";
        ms "checker.merge";
        ("checker.events_per_s", rate (sum "checker.events") (sum "checker.ns"), "1/s");
        ("pool.domains", float domains, "count");
        ("pool.claims", float !claims /. ops, "count");
        ("pool.steals", steals /. ops, "count");
        ("pool.busy_share", ratio (Int64.to_float !busy /. 1e9) (!wall *. float domains), "ratio");
      ]
    @ List.map
        (fun l ->
          ( "serve.request_ms." ^ l,
            ratio (sum ("serve.ns." ^ l) /. 1e6) (sum ("serve.n." ^ l)),
            "ms" ))
        levels
    @ [
        ("serve.hit_share", ratio (sum "serve.n.hit") requests, "ratio");
        ( "serve.roots_reused_ratio",
          ratio (sum "serve.roots_reused") (sum "serve.roots_reused" +. sum "serve.roots_stale"),
          "ratio" );
        ("serve.functions_invalidated", ratio (sum "serve.functions_invalidated") requests, "count");
        ("interp.steps", sum "interp.steps" /. ops, "count");
        ("interp.steps_per_s", rate (sum "interp.steps") (sum "interp.ns"), "1/s");
        ms "crash.explore";
        ("crash.images_enumerated", sum "crash.images_enumerated" /. ops, "count");
        ("crash.images_distinct", sum "crash.images_distinct" /. ops, "count");
        ( "crash.pruning_ratio",
          ratio (sum "crash.images_distinct") (sum "crash.images_enumerated"),
          "ratio" );
        ("crash.images_per_s", rate (sum "crash.images_enumerated") (sum "crash.ns"), "1/s");
        ms "recover.verify";
        ("recover.images_checked", sum "recover.images_checked" /. ops, "count");
        ("recover.images_per_s", rate (sum "recover.images_checked") (sum "recover.ns"), "1/s");
        ms "fuzz.campaign";
        ("fuzz.executions_per_s", rate (sum "fuzz.executions") (sum "fuzz.ns"), "1/s");
        ("fuzz.novel_ratio", ratio (sum "fuzz.novel") (sum "fuzz.executions"), "ratio");
        ("fuzz.aborted", sum "fuzz.aborted" /. ops, "count");
        ( "inject.mutate_ms",
          Option.value ~default:0. (Hashtbl.find_opt incl "inject.mutate") /. 1e6,
          "ms" );
        ("error_rate", ratio (float t.failed) ops, "ratio");
        ("known_defects", float (List.length inputs.defects), "count");
        ("host.kernel_ms", Host.kernel_ms host, "ms");
        ( "tracing.overhead_ms",
          (!wall -. (Float.Array.fold_left ( +. ) 0. (Float.Array.sub lat_u.buf 0 lat_u.len) /. 1000.))
          *. 1000. /. ops,
          "ms" );
      ]
    @ List.concat_map
        (fun l ->
          let self = Option.value ~default:0. (Hashtbl.find_opt self_in_op l) in
          [
            ("self_ms." ^ l, self /. 1e6 /. ops, "ms");
            ("self_share." ^ l, ratio self !op_ns, "ratio");
          ])
        layers
  in
  (* a replica that no longer reproduces the checker invalidates the
     split: publish -1 rather than numbers that describe other code *)
  let replica_ok = !mismatch = None in
  Option.iter (fun m -> Fmt.pr "# replica check failed: %s@." m) !mismatch;
  let metrics =
    if replica_ok then metrics else List.map (fun (n, _, u) -> (n, -1., u)) metrics
  in
  emit ~correct:(t.wrong = 0 && replica_ok) ~defects:inputs.defects t
    (metrics @ [ ("replica_ok", (if replica_ok then 1. else 0.), "count") ])

let () =
  let args = parse_args () in
  let _, why, setup = List.find (fun (n, _, _) -> n = args.workload) workloads in
  host_line args why;
  match if args.trace then per_layer args setup else end_to_end args setup with
  | () -> ()
  | exception e ->
    Fmt.epr "perfbench: %s@." (Printexc.to_string e);
    exit 1
