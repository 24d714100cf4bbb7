(* Schedule a task set from a file.

   e2e-sched schedule tasks.txt            # pick the strongest algorithm
   e2e-sched schedule -a h tasks.txt       # force Algorithm H
   e2e-sched check tasks.txt               # classify and report
   e2e-sched example > tasks.txt           # emit a template

   File format: see E2e_model.Instance_io. *)

open Cmdliner
module Rat = E2e_rat.Rat
module Flow_shop = E2e_model.Flow_shop
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Instance_io = E2e_model.Instance_io
module Schedule = E2e_schedule.Schedule
module Solver = E2e_core.Solver
module Obs = E2e_obs.Obs

let load path =
  match Instance_io.parse_file path with
  | Ok shop -> Ok shop
  | Error msg -> Error (`Msg (Printf.sprintf "%s: %s" path msg))

let print_schedule ~gantt s =
  Format.printf "%a@." Schedule.pp_table s;
  if gantt then Format.printf "@.Gantt:@.%a@." (Schedule.pp_gantt ?unit_time:None) s

let classify_to_string shop =
  if not (Visit.is_traditional shop.Recurrence_shop.visit) then "flow shop with recurrence"
  else
    let fs = Flow_shop.make ~processors:shop.Recurrence_shop.visit.Visit.processors
               shop.Recurrence_shop.tasks in
    match Flow_shop.classify fs with
    | `Identical_length tau -> Printf.sprintf "identical-length (tau = %s)" (Rat.to_string tau)
    | `Homogeneous _ -> "homogeneous"
    | `Arbitrary -> "arbitrary"

(* Telemetry flags for the schedule command.  No flag, no sink: the
   solvers run exactly as before, and output is unchanged. *)
let trace_arg =
  let doc =
    "Write a telemetry trace of the run to $(docv): solver-phase spans, per-task \
     decision events (effective deadlines, forbidden regions, bottleneck choices, \
     inflation and compaction deltas) and counter updates.  The format is chosen \
     with $(b,--trace-format)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace format: $(b,jsonl) writes one self-describing JSON object per event \
     per line; $(b,chrome) writes Chrome trace_event JSON that Perfetto \
     (ui.perfetto.dev) and chrome://tracing open as a timeline."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let stats_arg =
  let doc =
    "After the run, print every telemetry counter, gauge and histogram \
     (dispatches, forbidden regions, solver verdicts, ...)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* Install the requested sink and stats registry around [f], tearing both
   down (and flushing the trace file) even if [f] raises. *)
let with_telemetry ~trace ~trace_format ~stats f =
  match
    match trace with
    | None -> Ok ()
    | Some path -> (
        match open_out path with
        | oc ->
            Obs.install
              (match trace_format with
              | `Jsonl -> Obs.Sink.jsonl oc
              | `Chrome -> Obs.Sink.chrome oc);
            Ok ()
        | exception Sys_error msg -> Error (`Msg ("cannot open trace file: " ^ msg)))
  with
  | Error _ as e -> e
  | Ok () ->
      if stats then begin
        Obs.set_stats true;
        Obs.reset_metrics ()
      end;
      Fun.protect
        ~finally:(fun () ->
          Obs.uninstall ();
          if stats then begin
            Format.printf "@.%a@." Obs.pp_metrics ();
            Obs.set_stats false
          end)
        f

(* The single-machine engine refuses instances whose scaled times could
   wrap a native int, and the rationals refuse sums past 63 bits: say so
   in one line instead of dying on the exception. *)
let refuse_overflow path f =
  try f ()
  with Rat.Overflow ->
    Error (`Msg (path ^ ": the instance's times do not fit the 63-bit integer grid"))

let schedule_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let gantt = Arg.(value & flag & info [ "gantt"; "g" ] ~doc:"Also print an ASCII Gantt chart.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Print the schedule as CSV and nothing else.") in
  let algo =
    let parse =
      Arg.enum
        [
          ("auto", `Auto); ("eedf", `Eedf); ("a", `A); ("h", `H); ("r", `R);
          ("portfolio", `Portfolio); ("localsearch", `Local_search); ("exact", `Exact);
          ("greedy", `Greedy);
        ]
    in
    Arg.(value & opt parse `Auto & info [ "algorithm"; "a" ] ~docv:"ALGO"
           ~doc:"Algorithm: auto, eedf, a, h, portfolio, localsearch, exact (traditional \
                 shops), r or greedy (recurrence allowed).")
  in
  let run path gantt csv algo trace trace_format stats =
    match load path with
    | Error e -> Error e
    | Ok shop ->
        refuse_overflow path @@ fun () ->
        with_telemetry ~trace ~trace_format ~stats @@ fun () ->
        (
        let traditional () =
          if Visit.is_traditional shop.Recurrence_shop.visit then
            Ok (Flow_shop.make ~processors:shop.Recurrence_shop.visit.Visit.processors
                  shop.Recurrence_shop.tasks)
          else Error (`Msg "this algorithm needs a traditional (loop-free) visit sequence")
        in
        let report = function
          | Ok s ->
              if csv then print_string (Schedule.to_csv s)
              else begin
                print_schedule ~gantt s;
                Format.printf "@.feasible: %b@." (Schedule.is_feasible s)
              end;
              Ok ()
          | Error msg ->
              Format.printf "no schedule: %s@." msg;
              Ok ()
        in
        match algo with
        | `Auto ->
            if Visit.is_traditional shop.Recurrence_shop.visit then begin
              match traditional () with
              | Error e -> Error e
              | Ok fs -> (
                  match Solver.solve fs with
                  | Solver.Feasible (s, which) ->
                      Format.printf "algorithm: %s@.@."
                        (match which with
                        | `Eedf -> "EEDF (optimal)"
                        | `Algorithm_a -> "Algorithm A (optimal)"
                        | `Algorithm_h -> "Algorithm H (heuristic)");
                      report (Ok s)
                  | Solver.Proved_infeasible _ -> report (Error "proved infeasible")
                  | Solver.Heuristic_failed -> report (Error "Algorithm H failed (undecided)"))
            end
            else
              report
                (match E2e_core.Algo_r.schedule shop with
                | Ok s -> Ok s
                | Error e -> Error (Format.asprintf "%a" E2e_core.Algo_r.pp_error e))
        | `Eedf -> (
            match traditional () with
            | Error e -> Error e
            | Ok fs ->
                report
                  (match E2e_core.Eedf.schedule fs with
                  | Ok s -> Ok s
                  | Error `Infeasible -> Error "proved infeasible"
                  | Error `Not_identical_length -> Error "task set is not identical-length"))
        | `A -> (
            match traditional () with
            | Error e -> Error e
            | Ok fs ->
                report
                  (match E2e_core.Algo_a.schedule fs with
                  | Ok s -> Ok s
                  | Error `Infeasible -> Error "proved infeasible"
                  | Error `Not_homogeneous -> Error "task set is not homogeneous"))
        | `H -> (
            match traditional () with
            | Error e -> Error e
            | Ok fs ->
                report
                  (match E2e_core.Algo_h.schedule fs with
                  | Ok s -> Ok s
                  | Error f -> Error (Format.asprintf "%a" E2e_core.Algo_h.pp_failure f)))
        | `Portfolio -> (
            match traditional () with
            | Error e -> Error e
            | Ok fs ->
                report
                  (match E2e_core.H_portfolio.schedule fs with
                  | Ok (s, strategy) ->
                      if not csv then
                        Format.printf "strategy: %a@.@." E2e_core.H_portfolio.pp_strategy
                          strategy;
                      Ok s
                  | Error `All_failed -> Error "every portfolio strategy failed"))
        | `Local_search -> (
            match traditional () with
            | Error e -> Error e
            | Ok fs ->
                report
                  (match E2e_baselines.Local_search.schedule fs with
                  | Some s -> Ok s
                  | None -> Error "local search found no feasible permutation"))
        | `Exact -> (
            match traditional () with
            | Error e -> Error e
            | Ok fs ->
                report
                  (match E2e_baselines.Branch_bound.solve fs with
                  | E2e_baselines.Branch_bound.Feasible s -> Ok s
                  | E2e_baselines.Branch_bound.Infeasible -> Error "proved infeasible"
                  | E2e_baselines.Branch_bound.Unknown -> Error "search budget exhausted"))
        | `Greedy ->
            let s = E2e_core.Greedy_edf.schedule shop in
            report
              (if Schedule.is_feasible s then Ok s
               else Error "greedy dispatch misses a constraint")
        | `R ->
            report
              (match E2e_core.Algo_r.schedule shop with
              | Ok s -> Ok s
              | Error e -> Error (Format.asprintf "%a" E2e_core.Algo_r.pp_error e)))
  in
  let doc = "Find an end-to-end schedule for a task-set file." in
  Cmd.v
    (Cmd.info "schedule" ~doc)
    Term.(
      term_result
        (const run $ path $ gantt $ csv $ algo $ trace_arg $ trace_format_arg $ stats_arg))

let check_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run path =
    match load path with
    | Error e -> Error e
    | Ok shop ->
        refuse_overflow path @@ fun () ->
        Format.printf "%d tasks, %d stages, %d processors@." (Recurrence_shop.n_tasks shop)
          (Visit.length shop.Recurrence_shop.visit)
          shop.Recurrence_shop.visit.Visit.processors;
        Format.printf "class: %s@." (classify_to_string shop);
        Array.iter
          (fun (t : E2e_model.Task.t) ->
            Format.printf "  %a  slack %a@." E2e_model.Task.pp t Rat.pp (E2e_model.Task.slack t))
          shop.Recurrence_shop.tasks;
        Ok ()
  in
  let doc = "Parse, classify and summarise a task-set file." in
  Cmd.v (Cmd.info "check" ~doc) Term.(term_result (const run $ path))

let certify_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run path =
    match load path with
    | Error e -> Error e
    | Ok shop ->
        refuse_overflow path @@ fun () ->
        if not (Visit.is_traditional shop.Recurrence_shop.visit) then
          Error (`Msg "certificates apply to traditional (loop-free) task sets")
        else begin
          let fs =
            Flow_shop.make ~processors:shop.Recurrence_shop.visit.Visit.processors
              shop.Recurrence_shop.tasks
          in
          (match E2e_core.Infeasibility.check fs with
          | Some c ->
              Format.printf "INFEASIBLE: %a@." E2e_core.Infeasibility.pp_certificate c
          | None ->
              Format.printf
                "inconclusive: no polynomial certificate (the set may still be infeasible)@.");
          Ok ()
        end
  in
  let doc = "Look for a polynomial proof that no schedule can exist." in
  Cmd.v (Cmd.info "certify" ~doc) Term.(term_result (const run $ path))

let dot_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run path =
    match load path with
    | Error e -> Error e
    | Ok shop ->
        print_string (Visit.to_dot shop.Recurrence_shop.visit);
        Ok ()
  in
  let doc = "Print the visit graph in Graphviz DOT format." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(term_result (const run $ path))

let example_cmd =
  let run () =
    print_string
      "# end-to-end task set: release deadline tau_1 ... tau_k\n\
       # optional 'visit' line gives the (1-based) processor of each stage\n\
       visit 1 2 3 2 4\n\
       task 0 8  1 1 1 1 1\n\
       task 0 9  1 1 1 1 1\n\
       task 0 11 1 1 1 1 1\n\
       task 0 14 1 1 1 1 1\n"
  in
  let doc = "Print a template task-set file." in
  Cmd.v (Cmd.info "example" ~doc) Term.(const run $ const ())

let () =
  let info =
    Cmd.info "e2e-sched" ~version:"1.0.0"
      ~doc:"End-to-end deadline scheduling for distributed flow shops"
  in
  exit (Cmd.eval (Cmd.group info [ schedule_cmd; check_cmd; certify_cmd; dot_cmd; example_cmd ]))
