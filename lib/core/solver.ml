module Flow_shop = E2e_model.Flow_shop
module Visit = E2e_model.Visit
module Recurrence_shop = E2e_model.Recurrence_shop
module Schedule = E2e_schedule.Schedule
module Obs = E2e_obs.Obs

type verdict =
  | Feasible of Schedule.t * [ `Eedf | `Algorithm_a | `Algorithm_h ]
  | Proved_infeasible of [ `Eedf | `Algorithm_a ]
  | Heuristic_failed

let class_name = function
  | `Identical_length _ -> "identical_length"
  | `Homogeneous _ -> "homogeneous"
  | `Arbitrary -> "arbitrary"

let record_verdict verdict =
  (match verdict with
  | Feasible _ -> Obs.incr "solver.feasible"
  | Proved_infeasible _ -> Obs.incr "solver.proved_infeasible"
  | Heuristic_failed -> Obs.incr "solver.undecided");
  if Obs.enabled () then begin
    let algorithm, outcome =
      match verdict with
      | Feasible (_, `Eedf) -> ("eedf", "feasible")
      | Feasible (_, `Algorithm_a) -> ("algo_a", "feasible")
      | Feasible (_, `Algorithm_h) -> ("algo_h", "feasible")
      | Proved_infeasible `Eedf -> ("eedf", "proved_infeasible")
      | Proved_infeasible `Algorithm_a -> ("algo_a", "proved_infeasible")
      | Heuristic_failed -> ("algo_h", "undecided")
    in
    Obs.event "solver.verdict"
      ~fields:[ ("algorithm", Obs.Str algorithm); ("outcome", Obs.Str outcome) ]
  end;
  verdict

let solve_classified cls shop =
  match cls with
  | `Identical_length _ -> (
      match Eedf.schedule shop with
      | Ok s -> Feasible (s, `Eedf)
      | Error `Infeasible -> Proved_infeasible `Eedf
      | Error `Not_identical_length -> assert false)
  | `Homogeneous _ -> (
      match Algo_a.schedule shop with
      | Ok s -> Feasible (s, `Algorithm_a)
      | Error `Infeasible -> Proved_infeasible `Algorithm_a
      | Error `Not_homogeneous -> assert false)
  | `Arbitrary -> (
      match Algo_h.schedule shop with
      | Ok s -> Feasible (s, `Algorithm_h)
      | Error (`Inflated_infeasible | `Compacted_infeasible _) -> Heuristic_failed)

let solve shop =
  let cls = Flow_shop.classify shop in
  Obs.span "solver.solve"
    ~fields:
      [ ("class", Obs.Str (class_name cls)); ("tasks", Obs.Int (Flow_shop.n_tasks shop)) ]
    (fun () -> record_verdict (solve_classified cls shop))

let solve_recurrent (shop : Recurrence_shop.t) =
  if Visit.is_traditional shop.Recurrence_shop.visit then
    let fs = Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks in
    match solve fs with
    | Feasible (s, _) -> Ok s
    | Proved_infeasible _ | Heuristic_failed -> Error `Infeasible
  else Algo_r.schedule shop

type recurrent_verdict =
  | Recurrent_feasible of Schedule.t * [ `Algorithm_r | `Greedy_edf | `Traditional ]
  | Recurrent_proved_infeasible
  | Recurrent_undecided

let solve_recurrent_or_fallback (shop : Recurrence_shop.t) =
  if Visit.is_traditional shop.Recurrence_shop.visit then
    let fs = Flow_shop.make ~processors:shop.visit.Visit.processors shop.tasks in
    match solve fs with
    | Feasible (s, _) -> Recurrent_feasible (s, `Traditional)
    | Proved_infeasible _ -> Recurrent_proved_infeasible
    | Heuristic_failed -> Recurrent_undecided
  else
    match Algo_r.schedule shop with
    | Ok s -> Recurrent_feasible (s, `Algorithm_r)
    | Error `Infeasible -> Recurrent_proved_infeasible
    | Error (`Not_identical_unit | `Not_identical_release | `No_single_loop) ->
        let s = Greedy_edf.schedule shop in
        if Schedule.is_feasible s then Recurrent_feasible (s, `Greedy_edf)
        else Recurrent_undecided

let pp_verdict ppf = function
  | Feasible (_, `Eedf) -> Format.pp_print_string ppf "feasible (EEDF, optimal)"
  | Feasible (_, `Algorithm_a) -> Format.pp_print_string ppf "feasible (Algorithm A, optimal)"
  | Feasible (_, `Algorithm_h) -> Format.pp_print_string ppf "feasible (Algorithm H, heuristic)"
  | Proved_infeasible `Eedf -> Format.pp_print_string ppf "infeasible (proved by EEDF)"
  | Proved_infeasible `Algorithm_a -> Format.pp_print_string ppf "infeasible (proved by Algorithm A)"
  | Heuristic_failed -> Format.pp_print_string ppf "undecided (Algorithm H failed)"
