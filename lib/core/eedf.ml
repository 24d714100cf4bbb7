module Rat = E2e_rat.Rat
module Task = E2e_model.Task
module Flow_shop = E2e_model.Flow_shop
module Recurrence_shop = E2e_model.Recurrence_shop
module Grid = E2e_model.Grid
module Schedule = E2e_schedule.Schedule
module Obs = E2e_obs.Obs

(* The reduced instance on P_1, on the shop's grid: each task's release,
   and the effective deadline of its first subtask — the task must still
   fit its remaining m-1 stages after P_1.  Returns the grid, tau and
   those deadlines. *)
let first_stage_jobs (shop : Flow_shop.t) =
  let g = Grid.of_shop (Recurrence_shop.of_traditional shop) in
  let tau = g.max_tau.(0) in
  let rest = tau * (shop.processors - 1) in
  (g, tau, Array.map (fun d -> d - rest) g.deadline)

(* Every later subtask starts the instant its predecessor completes. *)
let propagate (g : Grid.t) ~m ~tau starts_p1 =
  Schedule.of_grid g (Grid.map_rows (fun s -> Array.init m (fun j -> s + (tau * j))) starts_p1)

let with_identical_length shop f =
  match Flow_shop.is_identical_length shop with
  | None -> Error `Not_identical_length
  | Some _ -> f ()

let schedule (shop : Flow_shop.t) =
  with_identical_length shop (fun () ->
      Obs.span "eedf.schedule"
        ~fields:[ ("tasks", Obs.Int (Flow_shop.n_tasks shop)) ]
        (fun () ->
          let g, tau, deadline = first_stage_jobs shop in
          if Obs.enabled () then
            Array.iteri
              (fun i (task : Task.t) ->
                Obs.event "eedf.effective_deadline"
                  ~fields:
                    [
                      ("task", Obs.Int task.id);
                      ("deadline", Obs.Str (Rat.to_string task.deadline));
                      ("effective", Obs.Str (Rat.to_string (Grid.to_rat g deadline.(i))));
                    ])
              shop.tasks;
          match
            Single_machine.schedule_grid ~scale:g.scale ~tau ~release:g.release ~deadline
          with
          | Error `Infeasible ->
              Obs.incr "eedf.infeasible";
              Error `Infeasible
          | Ok starts ->
              Obs.incr "eedf.feasible";
              Ok (propagate g ~m:shop.processors ~tau starts)))

let schedule_no_regions (shop : Flow_shop.t) =
  with_identical_length shop (fun () ->
      let g, tau, deadline = first_stage_jobs shop in
      match Single_machine.edf_grid_no_regions ~tau ~release:g.release ~deadline with
      | Error (`Deadline_missed i) -> Error (`Deadline_missed i)
      | Ok starts -> Ok (propagate g ~m:shop.processors ~tau starts))
