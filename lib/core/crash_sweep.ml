(* Parallel crash-image exploration. [Runtime.Crash_space] is kept free
   of any core dependency, so the domain fan-out lives here: exploring
   one program is a single interpreted run, so programs are the unit
   [Parallel.map] fans out. *)

type job = {
  name : string;
  prog : Nvmir.Prog.t;
  entry : string;
  args : int list;
}

type program_report = {
  name : string;
  report : Runtime.Crash_space.report;
  elapsed_s : float;  (** seconds exploring this program, on its domain *)
}

let explore_program ?config ?bound ?seed ?oracle ?(entry = "main")
    ?(args = []) prog =
  Runtime.Crash_space.explore ?config ~entry ~args ?bound ?seed ?oracle prog

let sweep ?domains ?config ?bound ?seed ?oracle (jobs : job list) :
    program_report list =
  Parallel.map ?domains
    (fun (j : job) ->
      let t0 = Clock.now () in
      let report =
        explore_program ?config ?bound ?seed ?oracle ~entry:j.entry
          ~args:j.args j.prog
      in
      { name = j.name; report; elapsed_s = Clock.elapsed_s t0 })
    jobs

let pp_program_report ppf r =
  Fmt.pf ppf "%-22s %a  (%.1f ms cpu)" r.name Runtime.Crash_space.pp_report
    r.report
    (r.elapsed_s *. 1000.)
